package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const root = "../.."

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmark(t *testing.T) (e2e, layer []benchMetric, names []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	return f.EndToEnd, f.PerLayer, names
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the metrics and
// workloads the command produces.
func TestBenchmarkFileMatches(t *testing.T) {
	e2e, layer, names := readBenchmark(t)
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, c := range []struct {
		listed []benchMetric
		code   []string
	}{{e2e, endToEnd}, {layer, perLayer}} {
		var got []string
		for _, m := range c.listed {
			got = append(got, m.Name)
		}
		if !slices.Equal(got, c.code) {
			t.Errorf("BENCHMARK.json lists %v, the command reports %v", got, c.code)
		}
	}
	for _, m := range e2e {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
	}
}

// TestQuartilesMatchPython checks the -repeat spread against the values
// Python's statistics.quantiles(range(1, 11), n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestQuickWorkloads runs every workload at toy scale untraced, and the
// fleet traced (the per-layer metrics share one code path), and checks
// that each prints every metric BENCHMARK.json names, finite and in its
// unit, and that the oracle passes.
func TestQuickWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs sdsd")
	}
	e2e, layer, _ := readBenchmark(t)
	sdsd := filepath.Join(t.TempDir(), "sdsd")
	build := exec.Command("go", "build", "-o", sdsd, "./cmd/sdsd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building sdsd: %v\n%s", err, out)
	}
	run := func(w workloadDef, trace int) *result {
		o := options{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true, root: root, sdsd: sdsd,
			spans: filepath.Join(t.TempDir(), "spans.json")}
		r, err := runChild(o, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct() {
			t.Errorf("%s: oracle failed: %v", w.name, r.Mismatches)
		}
		want := e2e
		if trace == 1 {
			want = layer
		}
		for _, m := range want {
			v, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not printed", w.name, m.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", w.name, m.Name, v.Value)
			case v.Unit != m.Unit:
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, m.Name, v.Unit, m.Unit)
			}
		}
		return r
	}
	var results []*result
	for _, w := range workloads {
		results = append(results, run(w, 0))
	}
	run(workloads[2], 1)

	var out bytes.Buffer
	ok, err := printFinal(&out, results[:1])
	if err != nil || !ok {
		t.Fatalf("printFinal: ok=%v err=%v", ok, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range final {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("final line keys %v, want %v", keys, want)
	}
}
