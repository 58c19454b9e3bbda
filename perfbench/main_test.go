package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro"
)

// tinySuite is a miniature of the full suite, with references computed
// by the dense oracle at test time, so the benchmark's own logic runs in
// seconds.
func tinySuite(t *testing.T) *suite {
	t.Helper()
	defs := []modelDef{
		{"case01", roleTable1, repro.CaseSpec{ID: 1, N: 40, P: 4, TargetPeak: 1.05, Seed: 1}},
		{"recip101", roleHalf, repro.CaseSpec{ID: 101, N: 40, P: 4, TargetPeak: 1.05, Seed: 2, Reciprocal: true}},
		{"sparse200", roleSparse, repro.CaseSpec{ID: 200, N: 48, P: 6, TargetPeak: 1.05, Seed: 3, SparsePorts: 2}},
	}
	list, err := buildRefs(defs, 2)
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[string]reference)
	for _, r := range list {
		refs[r.Key] = r
	}
	return &suite{
		models:   defs,
		fig6:     "case01",
		enforce:  []string{"case01"},
		fig6Reps: 2,
		refs:     refs,
		daemon:   daemonSizes{ports: 2, order: 16, rate: 8, pool: 6, batchCase: [3]int{1, 40, 4}},
	}
}

func tinyConfig(t *testing.T, s *suite, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 1, trace: trace, root: "..", build: t.TempDir(), suite: s}
}

// benchmarkJSON reads the repository's BENCHMARK.json metric lists.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program %v", e2e, endToEnd)
	}
	if !equalDefs(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program %v", layers, perLayer)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryMetricPrintsWithUnit runs each workload traced (which also
// runs it untraced) and checks that every metric prints by name with its
// unit and that the JSON line of each mode carries exactly its list.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	s := tinySuite(t)
	for _, w := range []string{"table1", "enforce", "daemon"} {
		t.Run(w, func(t *testing.T) {
			res, err := run(tinyConfig(t, s, w, true), testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("run not correct: %v", res.failures)
			}
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				if err := printResult(&out, res, trace); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
					if !hasMetricLine(lines, d) {
						t.Errorf("trace=%v: no line for %s with unit %s", trace, d.name, d.unit)
					}
				}
				var last struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics in the JSON line, want %d", trace, len(last.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: JSON metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
					}
				}
			}
		})
	}
}

func hasMetricLine(lines []string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "metric" && f[1] == d.name && f[3] == d.unit {
			return true
		}
	}
	return false
}

func TestCorruptedReferenceCrossingFails(t *testing.T) {
	s := tinySuite(t)
	ref := s.refs["case01"]
	if len(ref.Crossings) == 0 {
		t.Fatal("tiny case01 has no crossings to corrupt")
	}
	ref.Crossings = append([]float64(nil), ref.Crossings...)
	ref.Crossings[0] *= 1 + 1e-6
	s.refs["case01"] = ref
	res, err := run(tinyConfig(t, s, "table1", false), testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed == 0 {
		t.Fatal("run with a corrupted reference crossing reported correct")
	}
}

func TestCorruptedModelHashFails(t *testing.T) {
	s := tinySuite(t)
	ref := s.refs["recip101"]
	ref.Hash = strings.Repeat("0", len(ref.Hash))
	s.refs["recip101"] = ref
	if _, err := run(tinyConfig(t, s, "table1", false), testLog{t}); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("run with a corrupted model hash: err = %v, want a hash mismatch", err)
	}
}

// TestTracedAndUntracedCrossingsMatch runs the same pass with spans off
// and on and requires every operation to report identical crossings.
func TestTracedAndUntracedCrossingsMatch(t *testing.T) {
	s := tinySuite(t)
	cfg := tinyConfig(t, s, "table1", false)
	ops := passOps(s, "table1", cfg.seed)
	models, _, err := modelCache{cfg.buildDir()}.loadAll(s, opKeys(ops), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seconds = 0
	plain, _ := closedPasses(cfg, s, ops, models, nil, testLog{t})
	traced, _ := closedPasses(cfg, s, ops, models, newTracer(), testLog{t})
	for i, r := range plain[0] {
		tr := traced[0][i]
		if r.err != nil || tr.err != nil {
			t.Fatalf("%s %s: errors %v / %v", r.op.kind, r.op.key, r.err, tr.err)
		}
		if len(r.crossings) != len(tr.crossings) {
			t.Fatalf("%s %s: %d crossings untraced, %d traced", r.op.kind, r.op.key, len(r.crossings), len(tr.crossings))
		}
		for k := range r.crossings {
			if r.crossings[k] != tr.crossings[k] {
				t.Errorf("%s %s: crossing %d = %v untraced, %v traced", r.op.kind, r.op.key, k, r.crossings[k], tr.crossings[k])
			}
		}
	}
}

// testLog routes a run's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
