package tkd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/shard"
)

// ShardMetrics is a snapshot of a sharded dataset's scatter-gather counters:
// fan-out calls, τ push-down prunes, retries, hedges, degraded answers and
// per-shard latency histograms.
type ShardMetrics = shard.Snapshot

// ShardPolicy tunes a sharded dataset's fault tolerance: retry attempts and
// backoff, hedging, attempt timeouts and circuit-breaker thresholds. See
// shard.Policy for the fields.
type ShardPolicy = shard.Policy

// BreakerState is a replica circuit breaker's position (closed, open or
// half-open).
type BreakerState = shard.BreakerState

// DefaultShardPolicy returns the serving defaults (3 attempts, 5ms..250ms
// jittered backoff, hedging on observed p99, breakers opening after 5
// consecutive failures for 1s).
func DefaultShardPolicy() ShardPolicy { return shard.DefaultPolicy() }

// ShardOption configures Shard.
type ShardOption func(*shardConfig)

type shardConfig struct {
	shards         int
	peers          [][]string // replica URL groups; shard i → peers[i % len]
	client         *http.Client
	policy         ShardPolicy
	policySet      bool
	healthInterval time.Duration
	peerTimeout    time.Duration
}

// WithShards splits the dataset into n row-range shards (default 2, minimum
// 1 — a one-shard "sharded" dataset is valid and useful for crosschecks).
func WithShards(n int) ShardOption {
	return func(c *shardConfig) { c.shards = n }
}

// WithShardPeers serves the shards from remote tkdserver peers instead of
// in-process: shard i goes to urls[i % len(urls)]. Each entry is one
// shard's replica set — either a single base URL or several separated by
// '|' ("http://a:8080|http://b:8080"), in which case the shard's reads
// load-balance across the replicas with per-replica circuit breakers,
// retries and optional hedging (see WithShardPolicy). Every peer must have
// the same dataset registered under the same name the coordinator uses —
// peers verify a per-shard content fingerprint on every call, so a
// divergent replica fails (and is quarantined) instead of corrupting the
// merge.
func WithShardPeers(urls ...string) ShardOption {
	return func(c *shardConfig) {
		c.peers = c.peers[:0]
		for _, u := range urls {
			var group []string
			for _, r := range strings.Split(u, "|") {
				if r = strings.TrimSpace(r); r != "" {
					group = append(group, r)
				}
			}
			if len(group) > 0 {
				c.peers = append(c.peers, group)
			}
		}
	}
}

// WithShardClient overrides the HTTP client used to reach peers.
func WithShardClient(client *http.Client) ShardOption {
	return func(c *shardConfig) { c.client = client }
}

// WithShardPolicy overrides the fault-tolerance policy applied to every
// shard's replica set (default DefaultShardPolicy).
func WithShardPolicy(p ShardPolicy) ShardOption {
	return func(c *shardConfig) { c.policy, c.policySet = p, true }
}

// WithShardHealthChecks starts a background health probe per shard replica
// set, every interval: replicas whose fingerprint diverges from the
// coordinator's expectation are quarantined (breaker tripped) until they
// catch up, without spending query attempts discovering it. 0 (the
// default) disables the probes. Call Close to stop them.
func WithShardHealthChecks(interval time.Duration) ShardOption {
	return func(c *shardConfig) { c.healthInterval = interval }
}

// WithShardPeerTimeout bounds one peer round trip when no WithShardClient
// was given (default shard.DefaultRemoteTimeout, 30s). Per-query deadlines
// via WithContext apply on top, per call.
func WithShardPeerTimeout(d time.Duration) ShardOption {
	return func(c *shardConfig) { c.peerTimeout = d }
}

// ShardedDataset serves TKD queries over one dataset split into N row-range
// shards behind a scatter-gather coordinator. Each shard is an independent
// slice of the published epoch with its own binned bitmap index and column
// cache — servable in-process or by a remote tkdserver peer — while the
// coordinator keeps the full data and the global MaxScore queue. Answers
// are byte-identical to the unsharded dataset's for every algorithm: the
// coordinator replays the serial offer sequence with exact summed partial
// scores, pruning across shards with the pushed-down global τ (see package
// repro/internal/shard for the protocol).
//
// The wrapped Dataset remains the mutation surface — and the one place to
// read the data's size, epoch and fingerprint: Append, Negate and
// ReplaceFrom publish epochs exactly as before, and the shard set follows —
// a query that observes a new epoch rebuilds the slices (and their indexes)
// before running. Queries in flight keep the shard set they started with;
// nobody blocks anybody, mirroring the single-process epoch/RCU contract.
type ShardedDataset struct {
	src            *Dataset
	name           string // dataset name on peers (remote topologies)
	n              int
	peers          [][]string
	client         *http.Client
	policy         ShardPolicy
	healthInterval time.Duration
	met            *shard.Metrics

	mu  sync.Mutex
	cur atomic.Pointer[shardSet]

	cacheBudget atomic.Int64
}

// shardSet is one epoch's worth of shard topology: the frozen data, the
// coordinator over it, and one swappable slot per shard.
type shardSet struct {
	epoch uint64
	data  *data.Dataset
	coord *shard.Coordinator
	from  []int // shard i covers rows [from[i], from[i+1])
	slots []atomic.Pointer[backendBox]
}

// close stops every slot's background machinery (replica-set health
// loops). Queries in flight on the set keep working — close only retires
// goroutines.
func (s *shardSet) close() {
	for i := range s.slots {
		if rs, ok := s.slots[i].Load().b.(*shard.ReplicaSet); ok {
			rs.Close()
		}
	}
}

// releaseCache drops every in-process slot's decompressed-column cache.
func (s *shardSet) releaseCache() {
	for i := range s.slots {
		if l, ok := s.slots[i].Load().b.(*shard.Local); ok {
			l.ReleaseCache()
		}
	}
}

// backendBox boxes the Backend interface value for atomic swapping
// (individual shard reloads replace one box while queries hold the old one).
type backendBox struct{ b shard.Backend }

// backends snapshots the current backend of every slot.
func (s *shardSet) backends() []shard.Backend {
	out := make([]shard.Backend, len(s.slots))
	for i := range s.slots {
		out[i] = s.slots[i].Load().b
	}
	return out
}

// Shard wraps src in a scatter-gather coordinator. name is the dataset's
// registry name on remote peers (ignored for in-process shards, but always
// recorded so a topology can add peers later). The source dataset is shared,
// not copied: mutations through src publish epochs the sharded view follows.
func Shard(src *Dataset, name string, opts ...ShardOption) (*ShardedDataset, error) {
	cfg := shardConfig{shards: 2, policy: DefaultShardPolicy()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 1 {
		return nil, fmt.Errorf("tkd: shard count must be >= 1, got %d", cfg.shards)
	}
	if cfg.client == nil && len(cfg.peers) > 0 && cfg.peerTimeout > 0 {
		cfg.client = &http.Client{Timeout: cfg.peerTimeout}
	}
	return &ShardedDataset{
		src:            src,
		name:           name,
		n:              cfg.shards,
		peers:          cfg.peers,
		client:         cfg.client,
		policy:         cfg.policy,
		healthInterval: cfg.healthInterval,
		met:            shard.NewMetrics(cfg.shards),
	}, nil
}

// Source returns the wrapped dataset — the mutation surface.
func (sd *ShardedDataset) Source() *Dataset { return sd.src }

// ShardCount returns N.
func (sd *ShardedDataset) ShardCount() int { return sd.n }

// set resolves the shard set for the source's current epoch, building it
// (slices, backends, coordinator) when a mutation published a new one.
// Builds happen under the mutex; concurrent queries on the old epoch keep
// their set.
func (sd *ShardedDataset) set() *shardSet {
	s := sd.src.current()
	if cs := sd.cur.Load(); cs != nil && cs.epoch == s.epoch {
		return cs
	}
	sd.mu.Lock()
	defer sd.mu.Unlock()
	s = sd.src.current()
	if cs := sd.cur.Load(); cs != nil && cs.epoch == s.epoch {
		return cs
	}
	// The global MaxScore queue is the coordinator-side artifact; ensure it
	// on the source snapshot so unsharded queries on the same Dataset share
	// the build.
	queue := s.ensure(needQueue, sd.src).queue
	ds := s.ds
	n := sd.n
	ns := &shardSet{
		epoch: s.epoch,
		data:  ds,
		coord: shard.NewCoordinator(ds, queue, sd.met),
		from:  make([]int, n+1),
		slots: make([]atomic.Pointer[backendBox], n),
	}
	budget := sd.perShardBudget()
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		ns.from[i], ns.from[i+1] = lo, hi
		ns.slots[i].Store(&backendBox{b: sd.buildBackend(ds, i, lo, hi, budget)})
	}
	old := sd.cur.Load()
	sd.cur.Store(ns)
	if old != nil {
		// Retire the old epoch's health loops and drop its decompressed-column
		// caches so the swap returns their budget now; in-flight queries on
		// the old set are unaffected (close never touches the query path, and
		// a released cache only re-decompresses on further touches).
		old.close()
		old.releaseCache()
	}
	return ns
}

// buildBackend constructs shard i over rows [lo, hi): an in-process Local,
// or a replica set of Remotes pointing at the peer group the shard is
// assigned to (retry/hedge/breaker semantics apply even to a single-peer
// group — one replica is just the degenerate set).
func (sd *ShardedDataset) buildBackend(ds *data.Dataset, i, lo, hi int, budget int64) shard.Backend {
	slice := ds.Slice(lo, hi)
	if len(sd.peers) == 0 {
		l := shard.NewLocal(slice)
		if budget > 0 {
			l.SetCacheBudget(budget)
		}
		return l
	}
	group := sd.peers[i%len(sd.peers)]
	fp := slice.Fingerprint()
	replicas := make([]shard.Backend, len(group))
	for r, u := range group {
		replicas[r] = shard.NewRemote(sd.client, u, sd.name, lo, hi, fp)
	}
	rs, err := shard.NewReplicaSet(i, replicas, sd.policy, sd.met)
	if err != nil {
		// Unreachable: all replicas were built from the same slice identity.
		return replicas[0]
	}
	rs.StartHealthChecks(sd.healthInterval)
	return rs
}

// perShardBudget splits the dataset-level cache budget evenly.
func (sd *ShardedDataset) perShardBudget() int64 {
	b := sd.cacheBudget.Load()
	if b <= 0 {
		return 0
	}
	return max(b/int64(sd.n), 1)
}

// ReloadShard rebuilds shard i's backend — fresh slice handle, fresh
// indexes — and swaps it in atomically. Queries in flight keep the backend
// they captured; queries that start after the swap see the new one. It is
// the per-shard maintenance primitive (e.g. re-pick representations after a
// cache-budget change) and the unit the race tests hammer. Remote shards
// have no coordinator-side state to rebuild beyond the handle itself.
func (sd *ShardedDataset) ReloadShard(i int) error {
	s := sd.set()
	if i < 0 || i >= len(s.slots) {
		return fmt.Errorf("tkd: shard %d out of range [0,%d)", i, len(s.slots))
	}
	old := s.slots[i].Swap(&backendBox{b: sd.buildBackend(s.data, i, s.from[i], s.from[i+1], sd.perShardBudget())})
	if rs, ok := old.b.(*shard.ReplicaSet); ok {
		rs.Close()
	}
	return nil
}

// TopK answers the TKD query through the shard fan-out; same options, same
// answers — byte-identical to the unsharded Dataset — different topology.
// WithWorkers is accepted and ignored: the fan-out across shards is the
// parallelism. WithBins is likewise ignored (each shard bins its own slice
// by Eq. (8); bin layout never changes answers). WithBTreeRefinement maps
// to the IBIG scatter plan — refinement strategy is a shard-local detail
// that cannot change answers either.
func (sd *ShardedDataset) TopK(k int, opts ...Option) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("tkd: k must be positive, got %d", k)
	}
	cfg := queryConfig{alg: IBIG, workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s := sd.set()
	if s.data.Len() == 0 {
		return Result{}, fmt.Errorf("tkd: empty dataset")
	}
	// The engine span wraps the whole scatter-gather run; the coordinator
	// reads it back out of the context for its window spans and τ samples.
	eng := cfg.engineSpan(k, s.data.Len())
	eng.SetInt("shards", int64(sd.n))
	if eng != nil {
		ctx = obs.ContextWithSpan(ctx, eng)
	}
	var outcome shard.Outcome
	res, st, err := s.coord.Run(ctx, cfg.alg, k, s.backends(),
		shard.RunOptions{AllowPartial: cfg.allowPartial, Outcome: &outcome})
	if err != nil {
		eng.SetStr("error", err.Error())
		eng.End()
		return Result{}, err
	}
	stampStats(eng, st)
	if outcome.Degraded {
		eng.SetInt("degraded", 1)
		eng.SetInt("covered_rows", int64(outcome.CoveredRows))
	}
	eng.End()
	if cfg.stats != nil {
		*cfg.stats = st
	}
	if cfg.degradation != nil {
		*cfg.degradation = Degradation{
			Degraded:    outcome.Degraded,
			CoveredRows: outcome.CoveredRows,
			TotalRows:   outcome.TotalRows,
			DownShards:  outcome.DownShards,
		}
	}
	return res, nil
}

// Prepare eagerly builds every shard's serving artifacts (the per-shard
// binned indexes) plus the coordinator's global queue, in parallel across
// shards.
func (sd *ShardedDataset) Prepare() { sd.PrepareFor(IBIG) }

// PrepareFor eagerly builds the artifacts the given algorithms' scatter
// plans consume on each in-process shard (remote shards warm on their
// peers, on first use).
func (sd *ShardedDataset) PrepareFor(algs ...Algorithm) {
	s := sd.set()
	var wg sync.WaitGroup
	for _, box := range s.backends() {
		l, ok := box.(*shard.Local)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(l *shard.Local) {
			defer wg.Done()
			for _, a := range algs {
				l.Prewarm(a)
			}
		}(l)
	}
	wg.Wait()
}

// Metrics snapshots the scatter-gather counters (fan-out, τ push-downs,
// retries, hedges, degraded answers, per-shard latency histograms).
// Counters survive epoch swaps and shard reloads.
func (sd *ShardedDataset) Metrics() ShardMetrics { return sd.met.Snapshot() }

// ReplicaStates snapshots every shard's replica breaker states, in shard
// order: nil for a shard not served by a replica set (in-process Locals),
// one BreakerState per replica otherwise. The serving layer renders these
// as the tkd_shard_breaker_state / tkd_shard_replicas_healthy gauges.
func (sd *ShardedDataset) ReplicaStates() [][]BreakerState {
	s := sd.cur.Load()
	if s == nil {
		return nil
	}
	out := make([][]BreakerState, len(s.slots))
	for i := range s.slots {
		if rs, ok := s.slots[i].Load().b.(*shard.ReplicaSet); ok {
			out[i] = rs.States()
		}
	}
	return out
}

// Close stops the background machinery (replica health-check loops) of the
// current shard set. Queries keep working; call it when retiring the
// dataset so the goroutines do not outlive it.
func (sd *ShardedDataset) Close() {
	if s := sd.cur.Load(); s != nil {
		s.close()
	}
}

// SetCacheBudget bounds the decompressed-column caches across all shards to
// bytes in total (split evenly).
func (sd *ShardedDataset) SetCacheBudget(bytes int64) {
	sd.cacheBudget.Store(bytes)
	if s := sd.cur.Load(); s != nil {
		per := sd.perShardBudget()
		for i := range s.slots {
			if l, ok := s.slots[i].Load().b.(*shard.Local); ok && per > 0 {
				l.SetCacheBudget(per)
			}
		}
	}
}

// CacheStats aggregates the per-shard column-cache and representation
// counters.
func (sd *ShardedDataset) CacheStats() CacheStats {
	s := sd.cur.Load()
	if s == nil {
		return CacheStats{}
	}
	var out CacheStats
	for i := range s.slots {
		l, ok := s.slots[i].Load().b.(*shard.Local)
		if !ok {
			continue
		}
		st := l.CacheStats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evicted += st.Evicted
		out.Bytes += st.Bytes
		out.Budget += st.Budget
		out.DenseCols += st.DenseCols
		out.CompressedCols += st.CompressedCols
		out.SparseCols += st.SparseCols
		out.NativeKernel += st.NativeKernel
		out.Fallback += st.Fallback
	}
	return out
}

// ReleaseCache drops every shard's decompressed-column cache.
func (sd *ShardedDataset) ReleaseCache() {
	if s := sd.cur.Load(); s != nil {
		s.releaseCache()
	}
}

// IndexBuilds sums the shards' from-scratch index constructions — the warm
// restart observable: a restart that loads every persisted shard index
// reports zero new builds.
func (sd *ShardedDataset) IndexBuilds() int64 {
	s := sd.cur.Load()
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.slots {
		if l, ok := s.slots[i].Load().b.(*shard.Local); ok {
			n += l.Builds()
		}
	}
	return n
}

// ShardFingerprint returns shard i's slice fingerprint — the key of its
// persisted index file.
func (sd *ShardedDataset) ShardFingerprint(i int) (uint64, error) {
	s := sd.set()
	if i < 0 || i >= len(s.slots) {
		return 0, fmt.Errorf("tkd: shard %d out of range [0,%d)", i, len(s.slots))
	}
	return s.slots[i].Load().b.Fingerprint(), nil
}

// SaveShardIndex serializes shard i's binned index (building it first if
// needed) so a warm restart can skip that shard's rebuild. Remote shards
// persist on their peers; saving one here is an error.
func (sd *ShardedDataset) SaveShardIndex(i int, w io.Writer) error {
	l, err := sd.localShard(i)
	if err != nil {
		return err
	}
	return l.SaveIndex(w)
}

// LoadShardIndex restores shard i's persisted index. The stream is
// validated against the shard's slice (including its fingerprint); on any
// error the shard is unchanged and rebuilds lazily.
func (sd *ShardedDataset) LoadShardIndex(i int, r io.Reader) error {
	l, err := sd.localShard(i)
	if err != nil {
		return err
	}
	return l.LoadIndex(r)
}

// ShardIsLocal reports whether shard i runs in-process (remote shards
// persist their indexes on their peers, not here).
func (sd *ShardedDataset) ShardIsLocal(i int) bool {
	_, err := sd.localShard(i)
	return err == nil
}

// ShardRows returns shard i's row count. A zero-row shard (more shards
// than rows) has no index to persist or warm.
func (sd *ShardedDataset) ShardRows(i int) (int, error) {
	s := sd.set()
	if i < 0 || i >= len(s.slots) {
		return 0, fmt.Errorf("tkd: shard %d out of range [0,%d)", i, len(s.slots))
	}
	return s.slots[i].Load().b.Rows(), nil
}

func (sd *ShardedDataset) localShard(i int) (*shard.Local, error) {
	s := sd.set()
	if i < 0 || i >= len(s.slots) {
		return nil, fmt.Errorf("tkd: shard %d out of range [0,%d)", i, len(s.slots))
	}
	l, ok := s.slots[i].Load().b.(*shard.Local)
	if !ok {
		return nil, fmt.Errorf("tkd: shard %d is remote", i)
	}
	return l, nil
}
