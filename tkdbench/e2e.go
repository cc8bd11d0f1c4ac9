package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/tkd"
)

// traceSlice is how long traced and untraced stretches alternate in a
// traced run, so both see the same server state (the ingest dataset grows).
const traceSlice = 200 * time.Millisecond

// maxSetups caps the set-ups of one run.
const maxSetups = 25

// e2eResult is what one end-to-end run measured.
type e2eResult struct {
	setupS []float64 // spawn to first correct answer, per set-up

	queryLat []float64 // ms, correct answers only
	// Traced runs: latency of queries in traced and untraced slices.
	tracedLat, plainLat []float64

	appendLat, visibleLat, lateness []float64 // ms, from each batch's due time

	queries, batches, rowsAcked int
	attempted, failed           int
	errs                        []string

	elapsed   float64            // s, load start to last reader's stop
	cpuMS     float64            // server CPU time over the load
	steal     float64            // share of host CPU time stolen during the load
	rssMB     []float64          // server VmRSS, sampled every 100ms of the load
	peakMB    float64            // server VmHWM after the load
	delta     map[string]float64 // /metrics after minus before the load
	finalRows int                // ingest-mix: rows of all datasets after the drain
}

func (r *e2eResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds a goroutine's partial result into r.
func (r *e2eResult) merge(p *e2eResult) {
	r.queryLat = append(r.queryLat, p.queryLat...)
	r.tracedLat = append(r.tracedLat, p.tracedLat...)
	r.plainLat = append(r.plainLat, p.plainLat...)
	r.appendLat = append(r.appendLat, p.appendLat...)
	r.visibleLat = append(r.visibleLat, p.visibleLat...)
	r.lateness = append(r.lateness, p.lateness...)
	r.queries += p.queries
	r.batches += p.batches
	r.rowsAcked += p.rowsAcked
	r.attempted += p.attempted
	r.failed += p.failed
	r.errs = append(r.errs, p.errs...)
}

// e2eRun drives one workload against a real tkdserver process.
type e2eRun struct {
	cfg       config
	w         workload
	dir       string        // per-run scratch directory
	csvs      []string      // one per served dataset
	orcs      []*oracle     // one per served dataset (ingest: dataset 0 only)
	baseRows  []int         // rows of each served dataset before the load
	rows      []tkd.Row     // rows the writer appends, in order
	tr        *tracer       // nil: untraced
	setups    int           // at least this many set-ups
	setupTime time.Duration // and at least this long spent on them
	started   time.Time     // start of the load
}

func (e *e2eRun) serverArgs(i int) []string {
	var args []string
	for ds, csv := range e.csvs {
		args = append(args, "-dataset", dsName(ds)+"="+csv)
	}
	args = append(args, e.w.serverFlags()...)
	if e.w.ingest {
		args = append(args, "-waldir", filepath.Join(e.dir, fmt.Sprintf("wal-%d", i)))
	}
	return args
}

// setUp starts the server repeatedly, timing each start from spawn to the
// first correct answer, and keeps the last one running. It makes at least
// e.setups starts and keeps going until they took e.setupTime, so a fast
// set-up gets as steady a median as a slow one.
func (e *e2eRun) setUp(res *e2eResult) (*serverProc, error) {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		p, err := startServer(e.cfg.server, e.serverArgs(i))
		if err != nil {
			return nil, err
		}
		c := newClient(p.base)
		q := query{k: e.w.ks[0], alg: e.w.algs[0]}
		items, err := c.query(q)
		res.attempted++
		if err == nil && !e.orcs[0].check(q.k, items) {
			err = fmt.Errorf("first answer (k=%d) differs from the reference", q.k)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		c.close()
		if err != nil {
			res.fail("set-up: %v", err)
			_ = p.stop()
			return nil, err
		}
		if i+1 >= e.setups && (time.Since(start) >= e.setupTime || i+1 >= maxSetups) {
			return p, nil
		}
		if err := p.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up server: %w", err)
		}
	}
}

// run sets the server up, drives the load and checks the counters and,
// for ingest, the drained dataset.
func (e *e2eRun) run() (*e2eResult, error) {
	res := &e2eResult{}
	p, err := e.setUp(res)
	if err != nil {
		return res, err
	}
	defer p.stop()
	// The control connection scrapes /metrics around the load and is
	// closed during it: the load owns the two client connections.
	ctl := newClient(p.base)
	defer ctl.close()
	before, err := ctl.metrics()
	if err != nil {
		return res, err
	}
	ctl.close()
	cpu0, err1 := cpuMS(p.pid())
	steal0, total0, err2 := hostTicks()
	if err := errors.Join(err1, err2); err != nil {
		return res, err
	}

	e.load(p, res)

	cpu1, err1 := cpuMS(p.pid())
	steal1, total1, err2 := hostTicks()
	peak, err3 := statusMB(p.pid(), "VmHWM")
	if err := errors.Join(err1, err2, err3); err != nil {
		return res, err
	}
	res.cpuMS, res.peakMB = cpu1-cpu0, peak
	res.steal = (steal1 - steal0) / max(total1-total0, 1)
	after, err := ctl.metrics()
	if err != nil {
		return res, err
	}
	res.delta = make(map[string]float64)
	for k, v := range after {
		res.delta[k] = v - before[k]
	}
	// The counter cross-check: a generator that silently drops load, or a
	// server that silently drops work, shows as a count mismatch.
	if got := int(res.delta["tkd_queries_total"]); got != res.queries {
		res.fail("cross-check: sent %d queries, tkd_queries_total rose by %d", res.queries, got)
	}
	if got := int(res.delta["tkd_wal_appends_total"]); got != res.rowsAcked {
		res.fail("cross-check: %d rows acked, tkd_wal_appends_total rose by %d", res.rowsAcked, got)
	}
	if e.w.ingest {
		return res, e.verifyIngest(ctl, res)
	}
	return res, nil
}

// load runs the readers and the writer for the configured seconds, each on
// its own connection, while sampling the server's RSS, and merges their
// results into res.
func (e *e2eRun) load(p *serverProc, res *e2eResult) {
	e.started = time.Now()
	end := e.started.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	parts := make([]*e2eResult, e.w.readers+1)
	stops := make([]time.Time, e.w.readers)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &e2eResult{}
		if i == e.w.readers && !e.w.ingest {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(p.base)
			defer c.close()
			if i < e.w.readers {
				e.read(c, e.w.stream(e.cfg.seed, i), end, parts[i])
				stops[i] = time.Now()
			} else {
				e.write(c, end, parts[i])
			}
		}()
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		sampleRSS(p.pid(), stop, res)
	}()
	wg.Wait()
	close(stop)
	<-sampled
	for _, part := range parts {
		res.merge(part)
	}
	for _, t := range stops {
		res.elapsed = max(res.elapsed, t.Sub(e.started).Seconds())
	}
}

// sampleRSS records the server's RSS every 100ms until stop is closed.
func sampleRSS(pid int, stop <-chan struct{}, res *e2eResult) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if mb, err := statusMB(pid, "VmRSS"); err == nil {
				res.rssMB = append(res.rssMB, mb)
			}
		case <-stop:
			return
		}
	}
}

// tracer returns the tracer during the traced slices of a traced run, and
// nil otherwise.
func (e *e2eRun) tracer() *tracer {
	if e.tr == nil || (time.Since(e.started)/traceSlice)%2 == 0 {
		return nil
	}
	return e.tr
}

// correct checks a served answer: exactly against the reference on the
// read workloads, for shape while the ingest dataset grows.
func (e *e2eRun) correct(q query, items []byte) bool {
	if e.w.ingest {
		return wellFormed(q.k, items)
	}
	return e.orcs[q.ds].check(q.k, items)
}

// read is one closed-loop reader: the next query goes out when the
// previous answer is back and checked.
func (e *e2eRun) read(c *client, next func() query, end time.Time, res *e2eResult) {
	for time.Now().Before(end) {
		q := next()
		tr := e.tracer()
		t := time.Now()
		sp := tr.open("client.query", nil)
		items, err := c.query(q)
		tr.close(sp)
		lat := ms(time.Since(t))
		res.attempted++
		res.queries++
		switch {
		case err != nil:
			res.fail("query %s k=%d %s: %v", dsName(q.ds), q.k, q.alg, err)
			continue
		case !e.correct(q, items):
			res.fail("query %s k=%d %s: wrong answer %s", dsName(q.ds), q.k, q.alg, items)
			continue
		}
		res.queryLat = append(res.queryLat, lat)
		switch {
		case tr != nil:
			res.tracedLat = append(res.tracedLat, lat)
		case e.tr != nil:
			res.plainLat = append(res.plainLat, lat)
		}
	}
}

// pendingBatch is an acked batch not yet seen in its published dataset.
type pendingBatch struct {
	due    time.Time
	ds     int
	target int // published row count of ds that covers the batch
}

// batchDataset is the dataset the writer sends batch i to: batches go
// round-robin over the served datasets.
func (e *e2eRun) batchDataset(i int) int { return i % e.w.datasets }

// write is the open-loop writer: batch i is due at start + i/writeRate
// whatever happened before it, and its latencies count from that due time.
// Between sends it polls the datasets' published row counts on the same
// connection to time visibility. It stops at the first failed append, so
// the acked rows are always a prefix of e.rows.
func (e *e2eRun) write(c *client, end time.Time, res *e2eResult) {
	interval := time.Duration(float64(time.Second) / e.w.writeRate)
	const pollEvery = 5 * time.Millisecond
	var pending []pendingBatch
	acked := make([]int, e.w.datasets) // rows acked per dataset
	poll := func() {
		tr := e.tracer()
		sp := tr.open("client.poll", nil)
		n, err := c.objects()
		tr.close(sp)
		now := time.Now()
		res.attempted++
		if err != nil {
			res.fail("poll: %v", err)
			return
		}
		kept := pending[:0]
		for _, p := range pending {
			if n[dsName(p.ds)] >= p.target {
				res.visibleLat = append(res.visibleLat, ms(now.Sub(p.due)))
			} else {
				kept = append(kept, p)
			}
		}
		pending = kept
	}
	for i := 0; ; i++ {
		due := e.started.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			break
		}
		for time.Now().Before(due) {
			wait := time.Until(due)
			if len(pending) > 0 {
				poll()
				wait = min(time.Until(due), pollEvery)
			}
			time.Sleep(wait)
		}
		lo := i * writerBatch
		if lo+writerBatch > len(e.rows) {
			res.fail("writer ran out of generated rows at batch %d", i)
			break
		}
		batch := e.rows[lo : lo+writerBatch]
		res.lateness = append(res.lateness, ms(time.Since(due)))
		res.attempted++
		res.batches++
		tr := e.tracer()
		sp := tr.open("client.append", nil)
		body, err := appendBody(batch)
		if err == nil {
			_, err = c.do(http.MethodPost, "/v1/datasets/"+dsName(e.batchDataset(i))+"/append", body)
		}
		tr.close(sp)
		if err != nil {
			res.fail("append batch %d: %v", i, err)
			break
		}
		res.appendLat = append(res.appendLat, ms(time.Since(due)))
		res.rowsAcked += len(batch)
		ds := e.batchDataset(i)
		acked[ds] += len(batch)
		pending = append(pending, pendingBatch{due: due, ds: ds, target: e.baseRows[ds] + acked[ds]})
	}
	for deadline := time.Now().Add(10 * time.Second); len(pending) > 0 && time.Now().Before(deadline); {
		poll()
		time.Sleep(pollEvery)
	}
	if len(pending) > 0 {
		res.fail("%d acked batches never became visible", len(pending))
	}
}

// verifyIngest checks, once the writer has drained, that every dataset is
// exactly its base plus the rows acked into it, in order: its answer for
// every k must equal the reference over the same rows.
func (e *e2eRun) verifyIngest(c *client, res *e2eResult) error {
	n, err := c.objects()
	if err != nil {
		return err
	}
	refRows := make([]int, len(e.csvs))
	orcs := make([]*oracle, len(e.csvs))
	err = forEach(len(e.csvs), func(ds int) error {
		ref, err := readCSV(e.csvs[ds])
		if err != nil {
			return err
		}
		for i := 0; i < res.rowsAcked/writerBatch; i++ {
			if e.batchDataset(i) != ds {
				continue
			}
			for _, r := range e.rows[i*writerBatch : (i+1)*writerBatch] {
				if err := ref.Append(r.ID, r.Values...); err != nil {
					return fmt.Errorf("building the ingest reference: %w", err)
				}
			}
		}
		refRows[ds] = ref.Len()
		orcs[ds], err = newOracle(ref, e.w.ks)
		return err
	})
	if err != nil {
		return err
	}
	for ds := range e.csvs {
		res.finalRows += n[dsName(ds)]
		if got := n[dsName(ds)]; got != refRows[ds] {
			res.fail("%s has %d rows after the drain, want %d", dsName(ds), got, refRows[ds])
		}
		for _, k := range e.w.ks {
			for _, alg := range e.w.algs {
				res.attempted++
				items, err := c.query(query{ds: ds, k: k, alg: alg})
				if err != nil || !orcs[ds].check(k, items) {
					res.fail("final check %s k=%d %s: answer differs from the reference (err %v)", dsName(ds), k, alg, err)
				}
			}
		}
	}
	return nil
}

// forEach calls f(0), ..., f(n-1) on GOMAXPROCS goroutines and joins their
// errors. It runs only while no load is measured.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "tkdbench: "+format+"\n", args...) }
