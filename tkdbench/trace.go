package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the benchmark around a layer
// boundary. Spans of one operation share Trace, the ID of its root span.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps finished spans in memory until the run writes them out.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span; parent nil makes it the root of a new trace.
func (t *tracer) open(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, ID: t.next.Add(1), Start: int64(time.Since(t.t0))}
	s.Trace = s.ID
	if parent != nil {
		s.Trace, s.Parent = parent.Trace, parent.ID
	}
	return s
}

// close ends s and keeps it.
func (t *tracer) close(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// durations returns the duration in ms of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// beyond is how many of n samples lie above the q-quantile: a tail
// percentile is reported only when at least 10 do.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }
