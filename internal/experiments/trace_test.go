package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"ube/internal/engine"
	"ube/internal/schemaio"
	"ube/internal/search"
	"ube/internal/trace"
)

// tracedSolve runs one solve of the configuration on a fresh engine
// (engine-level caches must start cold: a warm one can change work
// counts, which are part of the compared payload) and returns the
// canonical trace bytes plus the raw trace.
func tracedSolve(t *testing.T, r traceRun) ([]byte, *trace.Trace) {
	t.Helper()
	_, tr, err := r.Solve()
	if err != nil {
		t.Fatal(err)
	}
	data, err := schemaio.EncodeTraceBytes(tr.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	return data, tr
}

// traceRun is one (setup, problem, optimizer, workers) configuration.
type traceRun struct {
	s       *Setup
	m       int
	o       Options
	newOpt  func() search.Optimizer
	workers int
}

func (r traceRun) Solve() (*engine.Solution, *trace.Trace, error) {
	e, err := engine.New(r.s.U)
	if err != nil {
		return nil, nil, err
	}
	p, err := r.s.Problem(r.m, Variants[0], r.o, 1)
	if err != nil {
		return nil, nil, err
	}
	p.Optimizer = r.newOpt()
	p.Workers = r.workers
	trc := trace.New()
	p.Trace = trc
	sol, err := e.Solve(&p)
	if err != nil {
		return nil, nil, err
	}
	return sol, trc.Finish(), nil
}

// TestTraceCountersDeterministic solves the same problem twice per
// (optimizer, Workers) configuration, each time on a fresh engine, and
// requires byte-identical canonical traces: same span tree, same
// deterministic counter payloads. This is the tracing extension of the
// repro suite's "solves are pure functions of (problem, seed, Workers)"
// contract.
func TestTraceCountersDeterministic(t *testing.T) {
	o := quickOpts()
	s, err := NewSetup(60, o)
	if err != nil {
		t.Fatal(err)
	}
	// A small second universe keeps the exhaustive oracle enumerable.
	tiny, err := NewSetup(14, o)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		s      *Setup
		m      int
		newOpt func() search.Optimizer
	}{
		{"tabu", s, 12, func() search.Optimizer { return search.NewTabu() }},
		{"sls", s, 12, func() search.Optimizer { return search.NewSLS() }},
		{"anneal", s, 12, func() search.Optimizer { return search.NewAnneal() }},
		{"pso", s, 12, func() search.Optimizer { return search.NewPSO() }},
		{"greedy", s, 12, func() search.Optimizer { return search.NewGreedy() }},
		{"exhaustive", tiny, 3, func() search.Optimizer { return search.NewExhaustive() }},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				run := traceRun{s: tc.s, m: tc.m, o: o, newOpt: tc.newOpt, workers: workers}
				first, tr := tracedSolve(t, run)
				second, _ := tracedSolve(t, run)
				if !bytes.Equal(first, second) {
					t.Fatalf("canonical traces differ across reruns:\n--- first\n%s\n--- second\n%s", first, second)
				}
				// Sanity: the trace has the engine's root span and real work.
				if len(tr.Spans) == 0 || tr.Spans[0].Name != "solve" || tr.Spans[0].Parent != -1 {
					t.Fatalf("trace has no solve root span: %+v", tr.Spans)
				}
				totals := tr.Totals()
				if totals[trace.CSearchEvals] == 0 {
					t.Error("trace counted no objective evaluations")
				}
				if totals[trace.CMatchRuns] == 0 {
					t.Error("trace counted no clustering runs")
				}
				if totals[trace.CClusterPops] == 0 {
					t.Error("trace counted no agenda pops")
				}
			})
		}
	}
}

// TestTraceDoesNotChangeResults re-solves one configuration with and
// without a tracer installed and requires identical solutions — tracing
// is a pure side channel.
func TestTraceDoesNotChangeResults(t *testing.T) {
	o := quickOpts()
	s, err := NewSetup(60, o)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(traced bool, workers int) *engine.Solution {
		e, err := engine.New(s.U)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Problem(12, Variants[0], o, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = workers
		if traced {
			p.Trace = trace.New()
		}
		sol, err := e.Solve(&p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	for _, workers := range []int{1, 4} {
		plain := solve(false, workers)
		traced := solve(true, workers)
		if fmt.Sprint(plain.Sources) != fmt.Sprint(traced.Sources) {
			t.Errorf("workers=%d: traced solve chose %v, untraced %v", workers, traced.Sources, plain.Sources)
		}
		//ube:float-exact identical solves must produce bit-identical qualities
		if plain.Quality != traced.Quality {
			t.Errorf("workers=%d: traced quality %v != untraced %v", workers, traced.Quality, plain.Quality)
		}
	}
}

// TestTraceOverheadGuard is the regression bound of the ISSUE: the
// enabled-tracer solve must stay within 5% of the disabled one on the
// trace experiment's cell. Timing asserts are noisy, so the guard takes
// the best of a few attempts before failing.
func TestTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in -short")
	}
	o := Options{Quick: true, MaxEvals: 2000}
	const limitPct = 5.0
	var last float64
	for attempt := 0; attempt < 3; attempt++ {
		res, err := TraceOverhead(o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.SameSources {
			t.Fatal("traced and untraced solves diverged")
		}
		if res.OverheadPct <= limitPct {
			return
		}
		last = res.OverheadPct
	}
	t.Errorf("enabled-tracer overhead %.2f%% exceeds %.1f%% in every attempt", last, limitPct)
}

// BenchmarkTraceOverhead times the trace experiment's solve with the
// tracer disabled and enabled; allocation counts are reported so the
// disabled path's allocation-identity is visible in benchstat diffs.
func BenchmarkTraceOverhead(b *testing.B) {
	o := quickOpts()
	s, err := NewSetup(60, o)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		traced bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := engine.New(s.U)
			if err != nil {
				b.Fatal(err)
			}
			p, err := s.Problem(12, Variants[0], o, 1)
			if err != nil {
				b.Fatal(err)
			}
			p.Workers = 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := p
				if mode.traced {
					q.Trace = trace.New()
				}
				if _, err := e.Solve(&q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
