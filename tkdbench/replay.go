package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/tkd"
)

// replayBatches is how many writer batches the write-path replays run.
const replayBatches = 30

// replay feeds the workload's seeded inputs for dataset 0 in-process
// through each layer's public function, one span per call, and reports the
// per-layer metrics (all but the /metrics-derived ones, which come from the
// traced end-to-end run). Every answer is checked against the oracle.
type replay struct {
	w    workload
	seed int64
	dir  string
	csv  string
	orc  *oracle
	rows []tkd.Row // append batches for the write-path replays
	tr   *tracer
	rep  *report

	attempted, failed int
	errs              []string
}

func (r *replay) check(what string, k int, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("replay %s k=%d: answer differs from the reference", what, k))
		}
	}
}

// timed runs f under a span named name.
func (r *replay) timed(name string, parent *span, f func()) {
	s := r.tr.open(name, parent)
	f()
	r.tr.close(s)
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (r *replay) run() error {
	const repeats = 3
	root := r.tr.open("replay", nil)
	defer r.tr.close(root)

	// data: CSV parse, as the server's load does it.
	var ds *tkd.Dataset
	var err error
	for i := 0; i < repeats; i++ {
		r.timed("data.read_csv", root, func() { ds, err = readCSV(r.csv) })
		if err != nil {
			return err
		}
	}
	r.rep.add("data.read_csv_ms", quantile(r.tr.durations("data.read_csv"), 0.5), "ms", repeats)

	// bitmapidx: index construction on a fresh parse each time.
	for i := 0; i < repeats; i++ {
		if ds, err = readCSV(r.csv); err != nil {
			return err
		}
		r.timed("bitmapidx.prepare", root, ds.Prepare)
	}
	r.rep.add("bitmapidx.prepare_ms", quantile(r.tr.durations("bitmapidx.prepare"), 0.5), "ms", repeats)

	qs := r.w.replayQueries(r.seed, r.w.replayN)
	for _, q := range distinct(qs) { // warm the column cache, as a serving dataset is
		if _, err := ds.TopK(q.k, tkd.WithAlgorithm(alg(q))); err != nil {
			return err
		}
	}

	// core: serial TopK with stats. Answers are checked after the loop,
	// so the malloc count is the engine's alone.
	cs0 := ds.CacheStats()
	var sum tkd.Stats
	sumK := 0
	results := make([]tkd.Result, len(qs))
	m0 := memStats().Mallocs
	for i, q := range qs {
		var st tkd.Stats
		r.timed("core.topk", root, func() { results[i], err = ds.TopK(q.k, tkd.WithAlgorithm(alg(q)), tkd.WithStats(&st)) })
		if err != nil {
			return err
		}
		sum.Add(st)
		sumK += q.k
	}
	topkMallocs := float64(memStats().Mallocs-m0) / float64(len(qs))
	for i, q := range qs {
		r.check("core", q.k, r.orc.checkResult(q.k, results[i]))
	}
	cs1 := ds.CacheStats()
	coreLat := r.tr.durations("core.topk")
	n := float64(len(qs))
	r.rep.add("bitmapidx.native_kernel_frac", ratio(float64(cs1.NativeKernel-cs0.NativeKernel),
		float64(cs1.NativeKernel-cs0.NativeKernel+cs1.Fallback-cs0.Fallback)), "frac", len(qs))
	r.rep.add("core.topk_p50_ms", quantile(coreLat, 0.5), "ms", len(qs))
	r.rep.add("core.topk_p95_ms", quantile(coreLat, 0.95), "ms", len(qs))
	r.rep.add("core.candidates_per_query", float64(sum.Candidates)/n, "count", len(qs))
	r.rep.add("core.scored_per_query", float64(sum.Scored)/n, "count", len(qs))
	r.rep.add("core.pruned_h2_per_query", float64(sum.PrunedH2)/n, "count", len(qs))
	r.rep.add("core.pruned_h3_per_query", float64(sum.PrunedH3)/n, "count", len(qs))
	r.rep.add("core.comparisons_per_query", float64(sum.Comparisons)/n, "count", len(qs))
	r.rep.add("core.scored_useful_frac", ratio(float64(sumK), float64(sum.Scored)), "frac", len(qs))

	if err := r.shard(ds, qs[:min(len(qs), r.w.shardN)], coreLat, root); err != nil {
		return err
	}
	if err := r.serve(qs[:min(len(qs), r.w.serveN)], coreLat, topkMallocs, root); err != nil {
		return err
	}
	if err := r.walBatches(root); err != nil {
		return err
	}
	return r.appendBatches(ds, root)
}

// distinct returns each query of qs once.
func distinct(qs []query) []query {
	seen := make(map[query]bool)
	var out []query
	for _, q := range qs {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func alg(q query) tkd.Algorithm {
	if q.alg == "BIG" {
		return tkd.BIG
	}
	return tkd.IBIG
}

// ratio is num/den, or 0 when den is 0: a per-append or per-publish count
// on a workload with no appends reads 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// shard: the scatter-gather coordinator over 2 in-process shards of the
// same data, on a prefix of the same queries.
func (r *replay) shard(ds *tkd.Dataset, qs []query, coreLat []float64, root *span) error {
	var sd *tkd.ShardedDataset
	var err error
	for i := 0; i < 3; i++ {
		if sd != nil {
			sd.Close()
		}
		r.timed("shard.split", root, func() {
			if sd, err = tkd.Shard(ds, dsName(0), tkd.WithShards(2)); err == nil {
				sd.Prepare()
			}
		})
		if err != nil {
			return err
		}
	}
	defer sd.Close()
	var sum tkd.Stats
	for _, q := range qs {
		var st tkd.Stats
		var res tkd.Result
		r.timed("shard.topk", root, func() { res, err = sd.TopK(q.k, tkd.WithAlgorithm(alg(q)), tkd.WithStats(&st)) })
		if err != nil {
			return err
		}
		r.check("shard", q.k, r.orc.checkResult(q.k, res))
		sum.Add(st)
	}
	n := float64(len(qs))
	p50 := quantile(r.tr.durations("shard.topk"), 0.5)
	r.rep.add("shard.topk_p50_ms", p50, "ms", len(qs))
	r.rep.add("shard.vs_plain_ratio", p50/quantile(coreLat[:len(qs)], 0.5), "ratio", len(qs))
	r.rep.add("shard.scored_per_query", float64(sum.Scored)/n, "count", len(qs))
	r.rep.add("shard.pruned_h2_per_query", float64(sum.PrunedH2)/n, "count", len(qs))
	r.rep.add("shard.pruned_h3_per_query", float64(sum.PrunedH3)/n, "count", len(qs))
	r.rep.add("shard.windows_per_query", float64(sum.Windows)/n, "count", len(qs))
	r.rep.add("shard.split_ms", quantile(r.tr.durations("shard.split"), 0.5), "ms", 3)
	return nil
}

// serve: the query handler in-process (recorder, no socket), then the same
// handler behind a loopback listener. Requests ask for one worker so the
// engine work matches the serial core replay and the difference is the
// serving layer's own. The server is unsharded with the workload's window.
func (r *replay) serve(qs []query, coreLat []float64, topkMallocs float64, root *span) error {
	srv := server.New(server.Config{BatchWindow: r.w.window})
	defer srv.Close()
	if err := srv.LoadCSVFile(dsName(0), r.csv, false); err != nil {
		return err
	}
	// Requests and recorders are built before the timed loop and answers
	// decoded after it, so time and mallocs are the handler's alone.
	recs := func(qs []query) ([]*httptest.ResponseRecorder, []*http.Request) {
		recs, reqs := make([]*httptest.ResponseRecorder, len(qs)), make([]*http.Request, len(qs))
		for i, q := range qs {
			recs[i] = httptest.NewRecorder()
			reqs[i] = httptest.NewRequest(http.MethodPost, queryPath(0), bytes.NewReader(queryBody(q, 1)))
		}
		return recs, reqs
	}
	warm, warmReqs := recs(distinct(qs))
	for i := range warm {
		srv.ServeHTTP(warm[i], warmReqs[i])
	}
	rec, req := recs(qs)
	m0 := memStats().Mallocs
	for i := range qs {
		r.timed("server.serve", root, func() { srv.ServeHTTP(rec[i], req[i]) })
	}
	serveMallocs := float64(memStats().Mallocs-m0) / float64(len(qs))
	for i, q := range qs {
		if rec[i].Code != http.StatusOK {
			return fmt.Errorf("in-process query: status %d: %s", rec[i].Code, rec[i].Body.Bytes())
		}
		items, err := itemsOf(rec[i].Body.Bytes())
		if err != nil {
			return err
		}
		r.check("server", q.k, r.orc.check(q.k, items))
	}
	serve := quantile(r.tr.durations("server.serve"), 0.5)
	r.rep.add("server.serve_p50_us", serve*1e3, "us", len(qs))
	r.rep.add("server.overhead_us", (serve-quantile(coreLat[:len(qs)], 0.5))*1e3, "us", len(qs))
	r.rep.add("server.allocs_per_query", serveMallocs-topkMallocs, "count", len(qs))

	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := newClient(hs.URL)
	defer c.close()
	for _, q := range qs {
		var body []byte
		var err error
		r.timed("http.roundtrip", root, func() {
			body, err = c.do(http.MethodPost, queryPath(0), queryBody(q, 1))
		})
		if err != nil {
			return err
		}
		items, err := itemsOf(body)
		if err != nil {
			return err
		}
		r.check("http", q.k, r.orc.check(q.k, items))
	}
	rt := quantile(r.tr.durations("http.roundtrip"), 0.5)
	r.rep.add("http.roundtrip_overhead_us", (rt-serve)*1e3, "us", len(qs))
	return nil
}

// walBatches: one writer batch as the ingest handler logs it, with the
// workload's fsync policy — open a log, append the rows, sync.
func (r *replay) walBatches(root *span) error {
	policy, err := wal.ParsePolicy(fsyncPolicy)
	if err != nil {
		return err
	}
	for b := 0; b < replayBatches; b++ {
		batch := r.rows[b*writerBatch : (b+1)*writerBatch]
		r.timed("wal.batch", root, func() {
			var l *wal.Log
			l, _, err = wal.Open(filepath.Join(r.dir, fmt.Sprintf("replay-wal-%d", b)), wal.Options{Policy: policy})
			if err != nil {
				return
			}
			for _, row := range batch {
				if err = l.AppendRow(wal.Row{ID: row.ID, Values: row.Values}); err != nil {
					break
				}
			}
			if err == nil {
				err = l.Sync()
			}
			if cerr := l.Close(); err == nil {
				err = cerr
			}
		})
		if err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
	}
	r.rep.add("wal.append_sync_p50_ms", quantile(r.tr.durations("wal.batch"), 0.5), "ms", replayBatches)
	return nil
}

// appendBatches: the publish a writer batch costs, AppendRows on the
// prepared base data.
func (r *replay) appendBatches(ds *tkd.Dataset, root *span) error {
	patched := 0
	a0 := memStats().TotalAlloc
	for b := 0; b < replayBatches; b++ {
		var p bool
		var err error
		r.timed("tkd.append_rows", root, func() { p, err = ds.AppendRows(r.rows[b*writerBatch : (b+1)*writerBatch]) })
		if err != nil {
			return fmt.Errorf("append replay: %w", err)
		}
		if p {
			patched++
		}
	}
	allocMB := float64(memStats().TotalAlloc-a0) / replayBatches / (1 << 20)
	r.rep.add("tkd.append_rows_p50_ms", quantile(r.tr.durations("tkd.append_rows"), 0.5), "ms", replayBatches)
	r.rep.add("tkd.append_alloc_mb", allocMB, "MiB", replayBatches)
	r.rep.add("tkd.append_patched_frac", float64(patched)/replayBatches, "frac", replayBatches)
	return nil
}
