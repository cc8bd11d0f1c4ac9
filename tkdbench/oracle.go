package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/server"
	"repro/tkd"
)

// refAlgorithm computes the expected answers. It is never served by a
// workload (they serve IBIG and BIG), so a bug in a served algorithm cannot
// hide in its own reference.
const refAlgorithm = tkd.UBB

// oracle holds the expected items array of every k a workload asks for,
// encoded exactly as tkdserver encodes it.
type oracle struct {
	want map[int][]byte
}

func newOracle(ds *tkd.Dataset, ks []int) (*oracle, error) {
	o := &oracle{want: make(map[int][]byte, len(ks))}
	for _, k := range ks {
		res, err := ds.TopK(k, tkd.WithAlgorithm(refAlgorithm))
		if err != nil {
			return nil, fmt.Errorf("oracle k=%d: %w", k, err)
		}
		b, err := encodeItems(res)
		if err != nil {
			return nil, err
		}
		o.want[k] = b
	}
	return o, nil
}

// encodeItems renders res as the "items" array of a query response.
func encodeItems(res tkd.Result) ([]byte, error) {
	items := make([]server.QueryItem, len(res.Items))
	for i, it := range res.Items {
		items[i] = server.QueryItem{Rank: i + 1, Index: it.Index, ID: it.ID, Score: it.Score}
	}
	return json.Marshal(items)
}

// check reports whether a served items array is byte-identical to the
// reference for k, ignoring only insignificant JSON whitespace.
func (o *oracle) check(k int, items []byte) bool {
	want, ok := o.want[k]
	if !ok {
		return false
	}
	var got bytes.Buffer
	if err := json.Compact(&got, items); err != nil {
		return false
	}
	return bytes.Equal(got.Bytes(), want)
}

// checkResult is check for an in-process answer.
func (o *oracle) checkResult(k int, res tkd.Result) bool {
	b, err := encodeItems(res)
	return err == nil && o.check(k, b)
}

// wellFormed is the check for answers served while the dataset grows,
// whose epoch the client cannot pin: k items, ranks 1..k, scores
// non-increasing. The exact check runs once the writer has drained.
func wellFormed(k int, items []byte) bool {
	var got []server.QueryItem
	if err := json.Unmarshal(items, &got); err != nil || len(got) != k {
		return false
	}
	for i, it := range got {
		if it.Rank != i+1 || (i > 0 && it.Score > got[i-1].Score) {
			return false
		}
	}
	return true
}
