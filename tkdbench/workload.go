package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/tkd"
)

// workload is one traffic mix against one tkdserver configuration.
type workload struct {
	name string

	// The served datasets: IND synthetic data (tkd.GenerateIND), each
	// from its own seed. Readers spread queries over them, so one run
	// averages over several draws of the data.
	datasets        int
	rows, dim, card int
	sigma           float64

	// tkdserver configuration.
	window time.Duration // -window
	shards int           // -shards (1 = unsharded)
	ingest bool          // -waldir plus the ingest flags below

	// Closed-loop readers, each on its own connection, drawing the
	// dataset, k from ks and the algorithm from algs with a per-client
	// seeded RNG.
	readers int
	ks      []int
	algs    []string

	// Open-loop writer (ingest only): writerBatch-row batches at writeRate
	// batches per second, round-robin over the datasets, polling
	// visibility on the same connection.
	writeRate float64

	// In-process replay sizes: queries through the engine, through the
	// server and HTTP layers, and through the shard coordinator. The
	// latter two take prefixes of the engine's queries.
	replayN, serveN, shardN int
}

const (
	writerBatch     = 16
	fsyncPolicy     = "always"
	publishInterval = 20 * time.Millisecond
)

var workloads = []workload{
	{
		// The engine, index and kernels do almost all the work; the shard
		// coordinator is bypassed.
		name:     "read-engine",
		datasets: 4, rows: 20000, dim: 5, card: 100, sigma: 0.2,
		window: 2 * time.Millisecond, shards: 1,
		readers: 2, ks: []int{4, 8, 16, 32}, algs: []string{"IBIG", "BIG"},
		replayN: 200, serveN: 200, shardN: 40,
	},
	{
		// The same data and queries behind a 2-shard in-process coordinator,
		// which dominates.
		name:     "read-sharded",
		datasets: 4, rows: 20000, dim: 5, card: 100, sigma: 0.2,
		window: 2 * time.Millisecond, shards: 2,
		readers: 2, ks: []int{4, 8, 16, 32}, algs: []string{"IBIG", "BIG"},
		replayN: 200, serveN: 200, shardN: 40,
	},
	{
		// Fixed costs (handler, scheduler, admission, loopback) dominate.
		name:     "read-small",
		datasets: 4, rows: 200, dim: 5, card: 100, sigma: 0.2,
		window: 0, shards: 1,
		readers: 2, ks: []int{2, 4, 8, 16}, algs: []string{"IBIG"},
		replayN: 2000, serveN: 2000, shardN: 500,
	},
	{
		// Fsynced appends and publishes on 80k-row datasets beside a
		// closed-loop reader.
		name:     "ingest-mix",
		datasets: 6, rows: 80000, dim: 5, card: 100, sigma: 0.2,
		window: 2 * time.Millisecond, shards: 1, ingest: true,
		readers: 1, ks: []int{4, 8, 16, 32}, algs: []string{"IBIG"},
		writeRate: 20,
		replayN:   200, serveN: 60, shardN: 16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny returns w shrunk for the self-tests: small data and short replays,
// same server configuration and traffic shape.
func (w workload) tiny() workload {
	w.rows = min(w.rows, 600)
	w.replayN, w.serveN, w.shardN = 20, 20, 5
	return w
}

// serverFlags returns the tkdserver flags of w, apart from -addr, -dataset
// and -waldir, which name per-run resources.
func (w workload) serverFlags() []string {
	f := []string{"-window", w.window.String()}
	if w.shards > 1 {
		f = append(f, "-shards", strconv.Itoa(w.shards))
	}
	if w.ingest {
		f = append(f, "-fsync", fsyncPolicy, "-publish-interval", publishInterval.String(), "-delta-publish=true")
	}
	return f
}

// query is one read request of the workload's stream.
type query struct {
	ds  int // dataset index
	k   int
	alg string
}

// dsName is the served name of dataset i.
func dsName(i int) string { return "d" + strconv.Itoa(i) }

// stream returns reader client c's query generator for seed; the replay
// draws from the same generators, so it sees the same queries.
func (w workload) stream(seed int64, c int) func() query {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	return func() query {
		ds := rng.Intn(w.datasets)
		return query{ds: ds, k: w.ks[rng.Intn(len(w.ks))], alg: w.algs[rng.Intn(len(w.algs))]}
	}
}

// replayQueries returns the first n queries of the workload against
// dataset 0, taking the readers' streams in turn.
func (w workload) replayQueries(seed int64, n int) []query {
	next := make([]func() query, w.readers)
	for c := range next {
		next[c] = w.stream(seed, c)
	}
	var qs []query
	for i := 0; len(qs) < n; i++ {
		if q := next[i%w.readers](); q.ds == 0 {
			qs = append(qs, q)
		}
	}
	return qs
}

// baseData is served dataset i for seed.
func (w workload) baseData(seed int64, i int) *tkd.Dataset {
	return tkd.GenerateIND(w.rows, w.dim, w.card, w.sigma, seed*1009+int64(i))
}

// appendRows returns n rows from the same distribution as the base data,
// under IDs of their own, for the writer and the write-path replays.
func (w workload) appendRows(seed int64, n int) []tkd.Row {
	src := tkd.GenerateIND(n, w.dim, w.card, w.sigma, seed+1_000_003)
	rows := make([]tkd.Row, n)
	for i := range rows {
		vals := make([]float64, w.dim)
		for d := range vals {
			v, ok := src.Value(i, d)
			if !ok {
				v = tkd.Missing
			}
			vals[d] = v
		}
		rows[i] = tkd.Row{ID: "w" + strconv.Itoa(i), Values: vals}
	}
	return rows
}

// writeCSV writes ds to path in the datagen CSV format tkdserver loads.
func writeCSV(ds *tkd.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := ds.WriteCSV(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readCSV loads path the way tkdserver does.
func readCSV(path string) (*tkd.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := tkd.ReadCSV(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return ds, nil
}
