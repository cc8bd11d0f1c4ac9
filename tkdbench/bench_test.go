package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/tkd"
)

// serverBin is a tkdserver built from the repository for the tiny runs.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tkdbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "tkdserver")
	out, err := exec.Command("go", "build", "-o", serverBin, "repro/cmd/tkdserver").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building tkdserver: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of BENCHMARK.json the tests hold the code to.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	var e2e, layer []spec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, e2eSpecs) {
		t.Errorf("BENCHMARK.json end_to_end %v, code emits %v", e2e, e2eSpecs)
	}
	if !slices.Equal(layer, layerSpecs) {
		t.Errorf("BENCHMARK.json per_layer %v, code emits %v", layer, layerSpecs)
	}
}

// TestTinyRuns runs every workload at tiny scale, untraced and traced: each
// run must pass the oracle and the counter cross-check, and emit exactly
// the metric names BENCHMARK.json lists.
func TestTinyRuns(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range bj.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bj.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				var stdout bytes.Buffer
				cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace,
					server: serverBin, workdir: t.TempDir(), tiny: true}
				out, err := run(cfg, &stdout)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, stdout.String())
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, stdout.String())
				}
				var got []string
				for name := range out.Metrics {
					got = append(got, name)
				}
				slices.Sort(got)
				exp := slices.Sorted(slices.Values(want[trace]))
				if !slices.Equal(got, exp) {
					t.Errorf("emitted metrics %v, BENCHMARK.json lists %v", got, exp)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Errorf("last line is not the JSON outcome: %v", err)
				}
			})
		}
	}
}

// TestOracleFlagsCorruption: the oracle accepts a served answer identical
// to its reference and flags one whose expected answer was corrupted.
func TestOracleFlagsCorruption(t *testing.T) {
	ds := tkd.GenerateIND(500, 5, 100, 0.2, 3)
	orc, err := newOracle(ds, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.TopK(8, tkd.WithAlgorithm(tkd.IBIG))
	if err != nil {
		t.Fatal(err)
	}
	served, err := encodeItems(res)
	if err != nil {
		t.Fatal(err)
	}
	if !orc.check(8, served) {
		t.Fatalf("IBIG answer %s differs from the reference %s", served, orc.want[8])
	}
	indented, _ := json.MarshalIndent(json.RawMessage(served), "", "  ")
	if !orc.check(8, indented) {
		t.Error("whitespace alone made the oracle flag an answer")
	}

	good := orc.want[8]
	var items []map[string]any
	if err := json.Unmarshal(good, &items); err != nil {
		t.Fatal(err)
	}
	items[len(items)-1]["score"] = items[len(items)-1]["score"].(float64) + 1
	corrupt, _ := json.Marshal(items)
	orc.want[8] = corrupt
	if orc.check(8, served) {
		t.Error("oracle accepted an answer against a corrupted expected answer")
	}
	if orc.check(4, served) {
		t.Error("oracle accepted an answer for a k it has no reference for")
	}
	if wellFormed(8, served[:len(served)-1]) || wellFormed(9, served) {
		t.Error("wellFormed accepted a truncated or short answer")
	}
}
