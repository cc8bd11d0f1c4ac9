// Command tkdbench is the repository's end-to-end benchmark. It generates a
// workload's data from a seed, writes it to CSV, starts the real
// cmd/tkdserver binary on it and drives it over loopback HTTP from this one
// process with at most two client connections, checking every answer.
//
// Run it from the repository root through the wrapper, which builds both
// binaries from source into .bench_build/:
//
//	bash tkdbench/run.sh --workload read-engine --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones. Lines before it give every
// metric by name with its unit and sample count, and a run manifest.
// BENCHMARK.json at the repository root lists the workloads and metrics.
// It leaves out read-small, which stays runnable: on a shared 2-vCPU VM its
// run-to-run spread swung between 0.07 and 0.31 of its median with the
// host's load (the same code, the same hour), past the largest bound a
// gated metric may have, and no amount of work in one run averages away
// a host that is slower for minutes.
//
// # Workloads
//
// All data is IND synthetic (independent uniform values, cardinality 100,
// missing rate 0.2, 5 dimensions), each dataset from its own seed derived
// from --seed. Readers are closed loops, one per connection, drawing the
// dataset, k and the algorithm from a per-client seeded RNG. The read
// workloads serve 4 datasets: query cost depends on the data (the same
// query on two 20k draws differs by up to 45%), and spreading the queries
// over 4 draws keeps that out of the run-to-run spread.
//
//   - read-engine: 4 datasets of 20k rows, default server flags
//     (unsharded, -window 2ms), 2 readers, IBIG and BIG half each, k in
//     {4,8,16,32}. The engine, index and kernels do almost all the work;
//     the shard coordinator is bypassed, so a coordinator change must show
//     no change here.
//   - read-sharded: the same data and queries with -shards 2 (in-process
//     shards). The coordinator dominates; coordinator work shows here.
//   - read-small: 4 datasets of 200 rows, -window 0, 2 readers, IBIG, k in
//     {2,4,8,16}. Fixed costs dominate: handler decode/encode, scheduler,
//     admission and loopback.
//   - ingest-mix: 6 datasets of 80k rows with -waldir, -fsync always,
//     -publish-interval 20ms and delta publishes. An open-loop writer sends
//     16-row batches at 20 batches/s, round-robin over the datasets, and
//     between sends polls GET /v1/datasets every 5 ms on the same
//     connection to time visibility; one closed-loop reader runs IBIG with
//     k in {4,8,16,32}. Publish cost is linear in the row count, so O(delta)
//     publish work shows here, and the reader shows what writes cost reads.
//     The datasets grow by about 320 rows/s in all; the manifest records
//     their final size. One 80k draw's IBIG cost differs from another's by
//     up to 35% (an interquartile range of 19% of the median over ten
//     seeds), which alone put query_qps and query_p95_ms past their bound;
//     6 draws bring the seed-to-seed spread to about 4% on a quiet host.
//
// Remote shard peers, followers and standing subscriptions are out of
// scope: each needs another server process or a third client connection,
// more than a 2-core host runs without the load generator and the server
// fighting over cores.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s (s, lower): spawn of tkdserver to its first correct answer —
//     CSV parse, index build, shard split, WAL open. Median of at least 5
//     set-ups and at least 1 s of them (at most 25).
//   - query_qps (1/s, higher): correct answers per second.
//   - query_p50_ms, query_p95_ms (ms, lower): query latency. The tail is
//     p95, the highest percentile with at least 10 samples beyond it on
//     every workload in a 30 s run (ingest-mix's single reader at 80k rows
//     answers about 1200 queries, read-sharded's readers about 1600).
//   - cpu_ms_per_op (ms, lower): server utime+stime over the load, from
//     /proc/<pid>/stat, per completed query or append batch (visibility
//     polls are a probe, not an operation).
//   - server_rss_mb (MiB, lower): the server's RSS (VmRSS), median of
//     samples every 100 ms of the load. The peak (VmHWM) swings with GC
//     timing by 15% between runs, so it is printed (server_peak_rss_mb)
//     but not gated.
//
// Printed beside them, not in the JSON: query_p99_ms where it has 10
// samples beyond it, and on ingest-mix append_p50_ms/append_p95_ms (from
// each batch's due time to its ack), visible_p50_ms/visible_p95_ms (from
// due time until the published row count covers the batch), the writer's
// lateness against schedule (median and max) and the final row count. The
// manifest line also records the share of host CPU time stolen by the
// hypervisor during the load, which explains most slow runs. At
// 20 batches/s a 30 s run has 600 batches, so p95 is the append tail.
// failed_frac (non-200 answers, transport errors and wrong answers over
// operations attempted, all kinds) is printed and is failed/attempted in
// the JSON; any failure makes the run exit 1.
//
// # Correctness
//
// Every read-* answer is compared byte for byte (JSON whitespace aside)
// with a reference computed in-process by UBB, an algorithm no workload
// serves. ingest-mix answers during the run are checked for shape; after
// the writer drains, every k is queried on every dataset and compared with
// UBB over its base rows plus every row acked into it. /metrics is scraped before and after the
// load: queries sent must equal the tkd_queries_total delta and rows acked
// the tkd_wal_appends_total delta.
//
// # Per-layer metrics (--trace 1)
//
// A traced run repeats the end-to-end run with a span (name, start, end,
// parent, trace id) around each client call, alternating traced and
// untraced 200 ms slices; trace.overhead_frac is the traced over untraced
// query p50, minus one. It then replays dataset 0 and its share of the
// same seeded query stream in-process through each layer's public
// function, a span around each call, checking every answer. The spans are written to
// .bench_build/traces/<workload>-seed<n>.jsonl. Each layer metric, and the
// end-to-end metric it should move on which workload:
//
//   - data.read_csv_ms (tkd.ReadCSV): setup_s, mostly on ingest-mix.
//   - bitmapidx.prepare_ms (Dataset.Prepare): setup_s on read-engine and
//     ingest-mix. bitmapidx.native_kernel_frac (CacheStats NativeKernel over
//     NativeKernel+Fallback in the core replay; 0 when no compressed column
//     was touched): query_p50_ms on read-engine.
//   - core.* (serial Dataset.TopK with WithStats): core.topk_p50_ms and
//     core.topk_p95_ms move query_p50_ms, query_p95_ms and query_qps on
//     read-engine, partly on read-small. Counts per query: candidates,
//     scored, pruned_h2, pruned_h3, comparisons; core.scored_useful_frac is
//     k over scored.
//   - shard.* (ShardedDataset.TopK, 2 shards, same queries):
//     shard.topk_p50_ms and shard.vs_plain_ratio (shard p50 over core p50)
//     move query_p50_ms and query_qps on read-sharded, not on read-engine.
//     Counts per query: scored, pruned_h2, pruned_h3, windows.
//     shard.split_ms (tkd.Shard plus Prepare) moves setup_s on read-sharded.
//   - server.* (in-process Server.ServeHTTP with a recorder, unsharded, the
//     workload's window, one worker per query): server.serve_p50_us,
//     server.overhead_us (serve minus core p50) and server.allocs_per_query
//     (mallocs per ServeHTTP minus per TopK) move query_p50_ms and
//     cpu_ms_per_op on read-small. From the traced run's /metrics delta:
//     server.coalesced_frac and server.batch_size_mean move query_qps on
//     read-engine; server.admission_waits_per_query moves query_p95_ms on
//     read-engine.
//   - http.roundtrip_overhead_us (a client call to an in-process httptest
//     server, minus server.serve_p50_us): query_p50_ms on read-small.
//   - wal.append_sync_p50_ms (wal.Open, 16 AppendRow, Sync, per batch,
//     fsync always) and wal.fsyncs_per_append (/metrics): the printed
//     append_p50_ms and append_p95_ms on ingest-mix.
//   - tkd.append_rows_p50_ms and tkd.append_alloc_mb (Dataset.AppendRows
//     per 16-row batch on dataset 0): the printed visible_p50_ms and the
//     gated cpu_ms_per_op on ingest-mix and, through CPU contention on two
//     cores, its query_p95_ms; read-* unchanged. tkd.append_patched_frac
//     (share of patched publishes) and tkd.rows_per_publish (WAL appends
//     over tkd_ingest_publishes_total).
//
// A /metrics-derived metric whose denominator is zero on a workload (no
// appends on read-*) reads 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// spec names a metric and its unit.
type spec struct{ name, unit string }

// e2eSpecs are the metrics of a --trace 0 run, in print order.
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"query_qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"server_rss_mb", "MiB"},
}

// layerSpecs are the metrics of a --trace 1 run, in print order.
var layerSpecs = []spec{
	{"data.read_csv_ms", "ms"},
	{"bitmapidx.prepare_ms", "ms"},
	{"bitmapidx.native_kernel_frac", "frac"},
	{"core.topk_p50_ms", "ms"},
	{"core.topk_p95_ms", "ms"},
	{"core.candidates_per_query", "count"},
	{"core.scored_per_query", "count"},
	{"core.pruned_h2_per_query", "count"},
	{"core.pruned_h3_per_query", "count"},
	{"core.comparisons_per_query", "count"},
	{"core.scored_useful_frac", "frac"},
	{"shard.topk_p50_ms", "ms"},
	{"shard.vs_plain_ratio", "ratio"},
	{"shard.scored_per_query", "count"},
	{"shard.pruned_h2_per_query", "count"},
	{"shard.pruned_h3_per_query", "count"},
	{"shard.windows_per_query", "count"},
	{"shard.split_ms", "ms"},
	{"server.serve_p50_us", "us"},
	{"server.overhead_us", "us"},
	{"server.allocs_per_query", "count"},
	{"server.coalesced_frac", "frac"},
	{"server.batch_size_mean", "count"},
	{"server.admission_waits_per_query", "count"},
	{"http.roundtrip_overhead_us", "us"},
	{"wal.append_sync_p50_ms", "ms"},
	{"wal.fsyncs_per_append", "count"},
	{"tkd.append_rows_p50_ms", "ms"},
	{"tkd.append_alloc_mb", "MiB"},
	{"tkd.append_patched_frac", "frac"},
	{"tkd.rows_per_publish", "count"},
	{"trace.overhead_frac", "frac"},
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// report collects a run's metrics in the order they were measured.
type report struct{ metrics []metric }

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// pick returns the metrics named by specs, failing if one is missing or
// its unit differs.
func (r *report) pick(specs []spec) ([]metric, error) {
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	out := make([]metric, len(specs))
	for i, s := range specs {
		m, ok := byName[s.name]
		if !ok || m.unit != s.unit {
			return nil, fmt.Errorf("metric %s (%s) was not measured", s.name, s.unit)
		}
		out[i] = m
	}
	return out, nil
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // tkdserver binary
	workdir  string // where run data, WALs and span files go
	tiny     bool   // shrink the workload (self-tests)
}

// outcome is a finished run: what the JSON line carries.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]mvalue `json:"metrics"`
}

type mvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: read-engine, read-sharded, read-small or ingest-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and query streams")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the load runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "path of the tkdserver binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run data and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.server == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "tkdbench: need -server, -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg, os.Stdout)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, prints its report to stdout with the
// JSON outcome as the last line, and returns the outcome.
func run(cfg config, stdout io.Writer) (*outcome, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.tiny {
		w = w.tiny()
	}
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &e2eRun{cfg: cfg, w: w, dir: dir, setups: 5, setupTime: time.Second}
	e.csvs = make([]string, w.datasets)
	e.orcs = make([]*oracle, w.datasets)
	e.baseRows = make([]int, w.datasets)
	err = forEach(w.datasets, func(i int) error {
		csv := filepath.Join(dir, dsName(i)+".csv")
		if err := writeCSV(w.baseData(cfg.seed, i), csv); err != nil {
			return err
		}
		ds, err := readCSV(csv) // exactly what the server loads
		if err != nil {
			return err
		}
		e.csvs[i], e.baseRows[i] = csv, ds.Len()
		// Ingest answers are checked against references built after the
		// drain; before it, only dataset 0's set-up answer is.
		if i == 0 || !w.ingest {
			e.orcs[i], err = newOracle(ds, w.ks)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	batches := replayBatches
	if w.ingest {
		batches = max(batches, int(math.Ceil(w.writeRate*cfg.seconds))+1)
	}
	e.rows = w.appendRows(cfg.seed, batches*writerBatch)
	if cfg.trace {
		e.tr, e.setups, e.setupTime = newTracer(), 1, 0
	}
	res, err := e.run()
	if err != nil {
		for _, msg := range res.errs {
			logf("%s", msg)
		}
		return nil, err
	}

	rep := &report{}
	attempted, failed, errs := res.attempted, res.failed, res.errs
	addE2E(rep, res) // printed on a traced run too, for comparison
	if cfg.trace {
		addDerived(rep, res)
		rp := &replay{w: w, seed: cfg.seed, dir: dir, csv: e.csvs[0], orc: e.orcs[0], rows: e.rows, tr: e.tr, rep: rep}
		if err := rp.run(); err != nil {
			return nil, err
		}
		attempted, failed, errs = attempted+rp.attempted, failed+rp.failed, append(errs, rp.errs...)
	}
	for _, msg := range errs {
		logf("%s", msg)
	}

	specs := e2eSpecs
	if cfg.trace {
		specs = layerSpecs
	}
	picked, err := rep.pick(specs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# tkdbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	samples := make(map[string]int)
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%-34s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		samples[m.name] = m.n
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %-6s n=%d\n", "failed_frac", float64(failed)/float64(max(attempted, 1)), "frac", attempted)
	if cfg.trace {
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := e.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}
	man, err := json.Marshal(manifest(cfg, w, res, samples))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "manifest %s\n", man)

	out := &outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]mvalue)}
	for _, m := range picked {
		out.Metrics[m.name] = mvalue{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return out, nil
}

// addE2E reports the end-to-end metrics of an untraced run.
func addE2E(rep *report, res *e2eResult) {
	rep.add("setup_s", quantile(res.setupS, 0.5), "s", len(res.setupS))
	rep.add("query_qps", float64(len(res.queryLat))/res.elapsed, "1/s", len(res.queryLat))
	addTail(rep, "query", res.queryLat)
	ops := res.queries + res.batches
	rep.add("cpu_ms_per_op", ratio(res.cpuMS, float64(ops)), "ms", ops)
	rep.add("server_rss_mb", quantile(res.rssMB, 0.5), "MiB", len(res.rssMB))
	rep.add("server_peak_rss_mb", res.peakMB, "MiB", 1)
	if res.batches > 0 {
		addTail(rep, "append", res.appendLat)
		addTail(rep, "visible", res.visibleLat)
		rep.add("writer_lateness_p50_ms", quantile(res.lateness, 0.5), "ms", len(res.lateness))
		rep.add("writer_lateness_max_ms", slices.Max(res.lateness), "ms", len(res.lateness))
		rep.add("final_rows", float64(res.finalRows), "count", 1)
	}
}

// addTail reports p50, p95 and, when it has 10 samples beyond it, p99.
func addTail(rep *report, what string, lat []float64) {
	rep.add(what+"_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	rep.add(what+"_p95_ms", quantile(lat, 0.95), "ms", len(lat))
	if beyond(len(lat), 0.99) >= 10 {
		rep.add(what+"_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	}
}

// addDerived reports the per-layer metrics a traced run takes from its
// /metrics delta and from its traced/untraced slices.
func addDerived(rep *report, res *e2eResult) {
	d := res.delta
	q := d["tkd_queries_total"]
	n := int(q)
	rep.add("server.coalesced_frac", ratio(d["tkd_coalesced_queries_total"], q), "frac", n)
	rep.add("server.batch_size_mean", ratio(q, d["tkd_batches_total"]), "count", n)
	rep.add("server.admission_waits_per_query", ratio(d["tkd_admission_waits_total"], q), "count", n)
	appends := d["tkd_wal_appends_total"]
	rep.add("wal.fsyncs_per_append", ratio(d["tkd_wal_fsyncs_total"], appends), "count", int(appends))
	rep.add("tkd.rows_per_publish", ratio(appends, d["tkd_ingest_publishes_total"]), "count", int(appends))
	rep.add("trace.overhead_frac", ratio(quantile(res.tracedLat, 0.5), quantile(res.plainLat, 0.5))-1, "frac", len(res.tracedLat))
}

// manifest records what a run was: enough to reproduce and to judge it.
func manifest(cfg config, w workload, res *e2eResult, samples map[string]int) map[string]any {
	m := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"data":            fmt.Sprintf("%d IND datasets rows=%d dim=%d card=%d sigma=%g", w.datasets, w.rows, w.dim, w.card, w.sigma),
		"readers":         w.readers,
		"ks":              w.ks,
		"algorithms":      w.algs,
		"tkdserver_flags": strings.Join(w.serverFlags(), " "),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"samples":         samples,
		"host_steal_frac": res.steal,
	}
	if w.ingest {
		m["fsync_policy"] = fsyncPolicy
		m["writer"] = fmt.Sprintf("open loop, %d-row batches at %g/s", writerBatch, w.writeRate)
		m["final_rows"] = res.finalRows
	}
	return m
}
