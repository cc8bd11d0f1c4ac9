package tkd_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/tkd"
)

// Offsets into the two stream headers (see tkd/epoch.go and tkd/delta.go).
const (
	epochHdrFP   = 16 // magic, epoch
	epochHdrDlen = 25 // magic, epoch, fp, flags
	deltaHdrDlen = 40 // magic, baseEpoch, baseFP, epoch, fp
)

// fuzzEpochStreams returns a small dataset's full epoch stream (with index)
// and, after one append-publish on the same dataset, the delta stream from
// the base epoch to the new one. Importing the full stream yields exactly
// the base the delta applies to.
func fuzzEpochStreams(tb testing.TB) (full, delta []byte) {
	tb.Helper()
	leader := tkd.GenerateIND(60, 3, 8, 0.2, 7)
	leader.PrepareFor(tkd.IBIG)
	var fb bytes.Buffer
	if err := leader.ExportEpoch().Write(&fb, true); err != nil {
		tb.Fatal(err)
	}
	base, baseFP := leader.Epoch(), leader.Fingerprint()
	if _, err := leader.AppendRows(deltaBatch("f", 6, 3, 8, 5)); err != nil {
		tb.Fatal(err)
	}
	x, ok := leader.ExportEpochDelta(base, baseFP)
	if !ok {
		tb.Fatal("no delta for the base epoch")
	}
	var db bytes.Buffer
	if err := x.Write(&db); err != nil {
		tb.Fatal(err)
	}
	return fb.Bytes(), db.Bytes()
}

// mutated returns a copy of b with f applied.
func mutated(b []byte, f func([]byte) []byte) []byte {
	return f(append([]byte(nil), b...))
}

// oversized keeps a stream's header but declares a section of 1<<32-1 bytes
// the stream does not carry.
func oversized(b []byte, dlenAt int) []byte {
	return mutated(b[:dlenAt+8], func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[dlenAt:], 1<<32-1)
		return b
	})
}

// TestOversizedSectionHeaderRejectedCheaply: a header declaring a 4 GiB
// section on a stream that ends right after it must fail cleanly without
// allocating for the declared length — a corrupt or hostile leader cannot
// make every follower reserve gigabytes.
func TestOversizedSectionHeaderRejectedCheaply(t *testing.T) {
	full, delta := fuzzEpochStreams(t)
	cases := []struct {
		name   string
		stream []byte
		read   func([]byte) error
	}{
		{"epoch", oversized(full, epochHdrDlen), func(b []byte) error {
			_, _, err := tkd.ImportEpoch(bytes.NewReader(b))
			return err
		}},
		{"delta", oversized(delta, deltaHdrDlen), func(b []byte) error {
			_, err := tkd.ReadEpochDelta(bytes.NewReader(b))
			return err
		}},
	}
	for _, c := range cases {
		if len(c.stream) > 50 {
			t.Fatalf("%s: header of %d bytes, want at most 50", c.name, len(c.stream))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(c.stream)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a stream declaring 4 GiB it does not carry was accepted", c.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: rejecting the stream allocated %d bytes, want under 1 MiB", c.name, alloc)
		}
	}
}

// FuzzImportEpoch feeds arbitrary bytes to ImportEpoch. It must never panic,
// and a stream it accepts must publish data whose fingerprint and epoch are
// the header's, with a usable index.
func FuzzImportEpoch(f *testing.F) {
	full, _ := fuzzEpochStreams(f)
	noIndex := tkd.GenerateIND(40, 2, 6, 0.2, 9)
	var nb bytes.Buffer
	if err := noIndex.ExportEpoch().Write(&nb, false); err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(nb.Bytes())
	// The corruption matrix of TestEpochStreamCorruptionRejected.
	f.Add(mutated(full, func(b []byte) []byte { b[0] ^= 0xFF; return b }))
	f.Add(mutated(full, func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 0); return b }))
	f.Add(mutated(full, func(b []byte) []byte { b[epochHdrDlen+8+len(b)/4] ^= 0x01; return b }))
	f.Add(full[:len(full)-16])
	f.Add(full[:20])
	f.Add(oversized(full, epochHdrDlen))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		ds, epoch, err := tkd.ImportEpoch(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if want := binary.LittleEndian.Uint64(raw[epochHdrFP:]); ds.Fingerprint() != want {
			t.Fatalf("imported data fingerprint %016x, header says %016x", ds.Fingerprint(), want)
		}
		if ds.Epoch() != epoch {
			t.Fatalf("imported dataset published epoch %d, stream says %d", ds.Epoch(), epoch)
		}
		if _, err := ds.TopK(3); err != nil {
			t.Fatalf("imported dataset cannot answer: %v", err)
		}
	})
}

// FuzzReadEpochDelta feeds arbitrary bytes to ReadEpochDelta and applies
// whatever parses to a fixed base. It must never panic, and an apply either
// fails leaving the base's epoch and fingerprint untouched, or lands exactly
// on the delta header's epoch and fingerprint.
func FuzzReadEpochDelta(f *testing.F) {
	full, delta := fuzzEpochStreams(f)
	f.Add(delta)
	// The corruption matrix of TestApplyEpochDeltaRejectsDivergence and
	// TestEpochStreamCorruptionRejected, in delta form.
	f.Add(mutated(delta, func(b []byte) []byte { b[0] ^= 0xFF; return b }))
	f.Add(mutated(delta, func(b []byte) []byte { b[16] ^= 1; return b }))                                // divergent base
	f.Add(mutated(delta, func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 0); return b }))  // epoch 0
	f.Add(mutated(delta, func(b []byte) []byte { binary.LittleEndian.PutUint64(b[32:], 42); return b })) // wrong result
	f.Add(mutated(delta, func(b []byte) []byte { b[deltaHdrDlen+8+2] ^= 1; return b }))                  // row id flip
	f.Add(delta[:len(delta)-3])
	f.Add(delta[:20])
	f.Add(oversized(delta, deltaHdrDlen))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		dx, err := tkd.ReadEpochDelta(bytes.NewReader(raw))
		if err != nil {
			return
		}
		base, _, err := tkd.ImportEpoch(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		fp0 := base.Fingerprint() // publishes the imported epoch
		e0 := base.Epoch()
		if _, err := base.ApplyEpochDelta(dx); err != nil {
			if base.Epoch() != e0 || base.Fingerprint() != fp0 {
				t.Fatalf("failed apply moved the base from %d/%016x to %d/%016x",
					e0, fp0, base.Epoch(), base.Fingerprint())
			}
			return
		}
		if base.Epoch() != dx.Epoch || base.Fingerprint() != dx.Fingerprint {
			t.Fatalf("applied delta landed on %d/%016x, header says %d/%016x",
				base.Epoch(), base.Fingerprint(), dx.Epoch, dx.Fingerprint)
		}
	})
}
