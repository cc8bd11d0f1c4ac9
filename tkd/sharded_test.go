package tkd

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// algorithms under crosscheck: the paper's five plus the B+-tree-refined
// IBIG variant (a distinct serial code path, so it earns its own column).
var shardCrosscheckAlgs = []struct {
	name string
	opts []Option
}{
	{"Naive", []Option{WithAlgorithm(Naive)}},
	{"ESB", []Option{WithAlgorithm(ESB)}},
	{"UBB", []Option{WithAlgorithm(UBB)}},
	{"BIG", []Option{WithAlgorithm(BIG)}},
	{"IBIG", []Option{WithAlgorithm(IBIG)}},
	{"IBIG-btree", []Option{WithAlgorithm(IBIG), WithBTreeRefinement()}},
}

func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d items, want %d", label, len(got.Items), len(want.Items))
	}
	for i := range want.Items {
		w, g := want.Items[i], got.Items[i]
		if w.Index != g.Index || w.ID != g.ID || w.Score != g.Score {
			t.Fatalf("%s: rank %d: got {%d %q %d}, want {%d %q %d}",
				label, i+1, g.Index, g.ID, g.Score, w.Index, w.ID, w.Score)
		}
	}
}

// TestShardedCrosscheck asserts that the sharded dataset returns
// byte-identical answers — identical objects, ranks and scores — to the
// unsharded one, across all five algorithms (plus the B+-tree refinement)
// and N = 1, 2, 4 shards, on both value distributions.
func TestShardedCrosscheck(t *testing.T) {
	datasets := map[string]*Dataset{
		"IND": GenerateIND(900, 4, 30, 0.25, 42),
		"AC":  GenerateAC(700, 3, 25, 0.3, 43),
	}
	for dname, ds := range datasets {
		for _, n := range []int{1, 2, 4} {
			sd, err := Shard(ds, dname, WithShards(n))
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range shardCrosscheckAlgs {
				for _, k := range []int{1, 5, 16} {
					want, err := ds.TopK(k, alg.opts...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sd.TopK(k, alg.opts...)
					if err != nil {
						t.Fatalf("%s/%s n=%d k=%d: %v", dname, alg.name, n, k, err)
					}
					assertSameResult(t, fmt.Sprintf("%s/%s n=%d k=%d", dname, alg.name, n, k), want, got)
				}
			}
		}
	}
}

// TestShardedCrosscheckTies drives the rank-k tie-break case explicitly: a
// tiny value domain makes many objects share the k-th score, so the merge
// must replay the serial offer order (stable id-order within the heap's
// final sort) to stay byte-identical.
func TestShardedCrosscheckTies(t *testing.T) {
	// Cardinality 3 over 600 objects: scores collide massively.
	ds := GenerateIND(600, 3, 3, 0.35, 7)
	for _, n := range []int{2, 4} {
		sd, err := Shard(ds, "ties", WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range shardCrosscheckAlgs {
			for _, k := range []int{4, 10, 32} {
				want, err := ds.TopK(k, alg.opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sd.TopK(k, alg.opts...)
				if err != nil {
					t.Fatal(err)
				}
				// The k-th score must actually tie for this test to bite.
				assertSameResult(t, fmt.Sprintf("ties/%s n=%d k=%d", alg.name, n, k), want, got)
			}
		}
	}
	// Sanity: confirm the fixture really does tie at the boundary.
	res, err := ds.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Items[len(res.Items)-1].Score
	tied := 0
	for i := 0; i < ds.Len(); i++ {
		if ds.Score(i) == last {
			tied++
		}
	}
	if tied < 2 {
		t.Fatalf("fixture has no tie at the k-th score (score %d held by %d objects); tighten the generator", last, tied)
	}
}

// TestShardedTauPushdown asserts the cross-shard pruning is observable: an
// IBIG run over enough data must prune at least one candidate through the
// pushed-down τ, and must have fanned out to every shard.
func TestShardedTauPushdown(t *testing.T) {
	// Anti-correlated data with a high missing rate keeps several hundred
	// candidates past Heuristic 1, so the query spans multiple windows and
	// the bounds phase runs with a live τ (the serial run prunes ~200 of
	// these through Heuristic 2).
	ds := GenerateAC(3000, 4, 20, 0.4, 9)
	sd, err := Shard(ds, "push", WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.TopK(16, WithAlgorithm(IBIG)); err != nil {
		t.Fatal(err)
	}
	m := sd.Metrics()
	if m.TauPushdowns == 0 {
		t.Fatalf("expected τ push-down prunes on an IBIG run, metrics: %+v", m)
	}
	if m.Fanout == 0 {
		t.Fatal("expected shard fan-out calls")
	}
	if len(m.PerShard) != 4 {
		t.Fatalf("expected 4 per-shard histograms, got %d", len(m.PerShard))
	}
	for s, h := range m.PerShard {
		if h.Count == 0 {
			t.Fatalf("shard %d observed no scatter calls", s)
		}
	}
}

// TestShardedFollowsEpochs checks the shard set tracks source mutations:
// append through the source, query through the shards, answers match a
// fresh unsharded run.
func TestShardedFollowsEpochs(t *testing.T) {
	ds := GenerateIND(400, 3, 12, 0.2, 5)
	sd, err := Shard(ds, "epochs", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sd.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "pre-mutation", want, before)

	if err := ds.Append("late-arrival", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	want, err = ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sd.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-append", want, got)
	found := false
	for _, it := range got.Items {
		if it.ID == "late-arrival" {
			found = true
		}
	}
	if !found {
		t.Fatal("the all-best appended object should enter the top-k")
	}
}

// TestShardedConcurrentReload hammers queries against concurrent individual
// shard reloads and a wholesale ReplaceFrom — the race-clean contract. Run
// under -race.
func TestShardedConcurrentReload(t *testing.T) {
	ds := GenerateIND(800, 4, 20, 0.25, 21)
	sd, err := Shard(ds, "reload", WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	replacement := GenerateIND(800, 4, 20, 0.25, 21) // same seed: same answers

	var queriers, reloaders sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := sd.TopK(6)
				if err != nil {
					errs <- err
					return
				}
				for j := range want.Items {
					if got.Items[j] != want.Items[j] {
						errs <- fmt.Errorf("answer changed under reload at rank %d: %+v != %+v", j+1, got.Items[j], want.Items[j])
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		reloaders.Add(1)
		go func(g int) {
			defer reloaders.Done()
			for i := 0; i < 20; i++ {
				if err := sd.ReloadShard((g*2 + i) % sd.ShardCount()); err != nil {
					errs <- err
					return
				}
				if i%7 == 3 {
					ds.ReplaceFrom(replacement)
				}
			}
		}(g)
	}
	reloaders.Wait()
	close(stop)
	queriers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestShardedIndexPersistRoundTrip saves every shard's index and restores it
// into a fresh sharded view of the same data: zero rebuilds afterwards, and
// a stream from the wrong shard is rejected (fingerprint keying).
func TestShardedIndexPersistRoundTrip(t *testing.T) {
	ds := GenerateIND(500, 3, 15, 0.2, 31)
	sd, err := Shard(ds, "persist", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	sd.Prepare()
	if sd.IndexBuilds() != 3 {
		t.Fatalf("expected 3 shard index builds, got %d", sd.IndexBuilds())
	}
	saved := make([]*bytes.Buffer, 3)
	for i := range saved {
		saved[i] = &bytes.Buffer{}
		if err := sd.SaveShardIndex(i, saved[i]); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := Shard(GenerateIND(500, 3, 15, 0.2, 31), "persist", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong shard's stream: rejected, shard unchanged.
	if err := fresh.LoadShardIndex(0, bytes.NewReader(saved[1].Bytes())); err == nil {
		t.Fatal("expected a fingerprint mismatch loading shard 1's index into shard 0")
	}
	for i := range saved {
		if err := fresh.LoadShardIndex(i, bytes.NewReader(saved[i].Bytes())); err != nil {
			t.Fatalf("shard %d warm load: %v", i, err)
		}
	}
	want, err := ds.TopK(7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.TopK(7)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "warm-restored", want, got)
	if fresh.IndexBuilds() != 0 {
		t.Fatalf("warm restart built %d indexes, want 0", fresh.IndexBuilds())
	}
}
