package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke runs one workload at smoke scale and checks that the result line
// carries every metric of its set, by name and unit.
func smoke(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	cfg := runConfig{Workload: workload, Seed: 3, Seconds: 0.2, Trace: traced, Smoke: true, OutDir: t.TempDir()}
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(res.Problems) > 0 || res.Failed > 0 {
		t.Fatalf("%s: failed %d, problems %v", workload, res.Failed, res.Problems)
	}
	line, err := report(io.Discard, cfg, res)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var o output
	if err := json.Unmarshal([]byte(line), &o); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, line, err)
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	if !o.Correct || o.Attempted < 1 || len(o.Metrics) != len(set) {
		t.Fatalf("%s: correct=%v attempted=%d, %d metrics for a set of %d", workload, o.Correct, o.Attempted, len(o.Metrics), len(set))
	}
	for _, d := range set {
		v, ok := o.Metrics[d.Name]
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.Name, v, d.Unit)
		}
	}
	if traced {
		files, _ := filepath.Glob(filepath.Join(cfg.OutDir, "*.spans.jsonl"))
		if len(files) != 1 {
			t.Errorf("%s: span files %v, want one", workload, files)
		}
		if len(res.Layers) == 0 {
			t.Errorf("%s: traced run printed no per-layer self times", workload)
		}
	}
	return res
}

func TestSmokeFig6(t *testing.T) {
	a := smoke(t, "fig6-feedback", false)
	b := smoke(t, "fig6-feedback", false)
	// The digest of (sources, quality) is a pure function of commit and
	// seed.
	da, db := noteWith(a, "digest"), noteWith(b, "digest")
	if da == "" || da != db {
		t.Fatalf("digests differ across runs of one seed:\n%s\n%s", da, db)
	}
	smoke(t, "fig6-feedback", true)
}

func TestSmokeServe(t *testing.T) {
	smoke(t, "serve-sessions", false)
	res := smoke(t, "serve-sessions", true)
	if res.Metrics["server.handler_solve_ms"] <= 0 || res.Metrics["wal.appends_per_op"] <= 0 {
		t.Fatalf("traced serve run measured no server or WAL work: %v", res.Metrics)
	}
}

func TestSmokeChurn(t *testing.T) {
	smoke(t, "churn-refresh", false)
	res := smoke(t, "churn-refresh", true)
	if res.Metrics["engine.apply_churn_ms"] <= 0 || res.Metrics["strsim.vocab"] <= 0 {
		t.Fatalf("traced churn run measured no churn or vocabulary: %v", res.Metrics)
	}
}

func noteWith(res *result, prefix string) string {
	for _, n := range res.Notes {
		if strings.HasPrefix(n, prefix) {
			return n
		}
	}
	return ""
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog the binary prints from in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the binary %d", len(doc.Workloads), len(workloads))
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", what, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", what, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	same("per_layer", doc.PerLayer, layers)
}
