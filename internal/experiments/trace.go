package experiments

import (
	"fmt"
	"reflect"
	"time"

	"ube/internal/engine"
	"ube/internal/trace"
)

// TraceResult is the tracing-overhead experiment: the hardest measured
// Figure 6 cell (the golden m = 40 one) solved repeatedly with tracing
// off and on, each on a fresh engine so engine-level caches start cold
// both ways. Seconds are min-of-runs — the standard way to compare a fixed
// workload's cost under measurement noise — and the captured trace's
// span count and counter totals document what the enabled run recorded.
type TraceResult struct {
	// M and N identify the Figure 6 cell (choose M from N sources).
	M int `json:"m"`
	N int `json:"n"`
	// Runs is how many off/on solve pairs were timed.
	Runs int `json:"runs"`
	// DisabledSeconds and EnabledSeconds are min-of-runs solve times.
	DisabledSeconds float64 `json:"disabled_seconds"`
	EnabledSeconds  float64 `json:"enabled_seconds"`
	// OverheadPct is (enabled/disabled − 1) × 100.
	OverheadPct float64 `json:"overhead_pct"`
	// Spans is the captured trace's span count.
	Spans int `json:"spans"`
	// Counters are the captured trace's counter totals by wire name.
	Counters map[string]int64 `json:"counters"`
	// SameSources records that traced and untraced solves chose the
	// identical source set — tracing must never reroute a search.
	SameSources bool `json:"same_sources"`

	// Trace is the last enabled run's captured trace (for JSONL export);
	// not part of the JSON snapshot.
	Trace *trace.Trace `json:"-"`
}

// TraceOverhead measures what solve tracing costs on the golden Figure 6
// cell. Workers is pinned to 1 so the timings measure the instrumented
// sequential path rather than scheduler noise.
func TraceOverhead(o Options) (*TraceResult, error) {
	ms, n := Fig6Ms(o)
	m := ms[len(ms)-2]
	s, err := NewSetup(n, o)
	if err != nil {
		return nil, err
	}
	p, err := s.Problem(m, Variants[0], o, 1)
	if err != nil {
		return nil, err
	}
	p.Workers = 1

	runs := 3
	if o.Quick {
		runs = 2
	}
	res := &TraceResult{M: m, N: n, Runs: runs}
	var plain, traced *engine.Solution
	for r := 0; r < runs; r++ {
		for _, enabled := range []bool{false, true} {
			// A fresh engine per solve: engine-level caches must start
			// cold both ways or the second pipeline would time warm ones.
			e, err := engine.New(s.U)
			if err != nil {
				return nil, err
			}
			q := p
			var trc *trace.Tracer
			if enabled {
				trc = trace.New()
				trc.Label = fmt.Sprintf("fig6 m=%d n=%d", m, n)
				q.Trace = trc
			}
			start := time.Now()
			sol, err := e.Solve(&q)
			if err != nil {
				return nil, err
			}
			sec := time.Since(start).Seconds()
			if enabled {
				//ube:float-exact zero is the not-yet-measured sentinel, never a computed value
				if res.EnabledSeconds == 0 || sec < res.EnabledSeconds {
					res.EnabledSeconds = sec
				}
				traced = sol
				res.Trace = trc.Finish()
			} else {
				//ube:float-exact zero is the not-yet-measured sentinel, never a computed value
				if res.DisabledSeconds == 0 || sec < res.DisabledSeconds {
					res.DisabledSeconds = sec
				}
				plain = sol
			}
		}
	}
	res.OverheadPct = (res.EnabledSeconds/res.DisabledSeconds - 1) * 100
	res.Spans = len(res.Trace.Spans)
	totals := res.Trace.Totals()
	res.Counters = totals.Map()
	res.SameSources = reflect.DeepEqual(plain.Sources, traced.Sources)
	return res, nil
}
