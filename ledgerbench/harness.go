package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ube/internal/engine"
	"ube/internal/model"
	"ube/internal/pcsa"
	"ube/internal/trace"
)

const (
	// minOps is the fewest operations a timed phase may end with: p95 then
	// has at least ten samples beyond it. A phase keeps running past
	// --seconds until it has them.
	minOps = 200
	// qualityOps is how many operations, in their deterministic order,
	// quality_mean averages, so it is a pure function of the seed.
	qualityOps = 200
	// minTracedOps bounds the traced phase from below; per-layer figures
	// are medians and means, which need no tail.
	minTracedOps = 20
)

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks every input and sample minimum so the unit tests can
	// drive each workload end to end in a second or two. Smoke figures
	// are not benchmark results.
	Smoke  bool
	OutDir string
}

func (c runConfig) minOps() int {
	if c.Smoke {
		// Enough that serve-sessions' first user has surely made its
		// first qualityOps solves before the other client ends the phase.
		return 24
	}
	return minOps
}

func (c runConfig) qualityOps() int {
	if c.Smoke {
		return 4
	}
	return qualityOps
}

func (c runConfig) minTracedOps() int {
	if c.Smoke {
		return 2
	}
	return minTracedOps
}

// phaseSeconds is how long each timed phase lasts: the whole run when
// untraced; half each for the untraced and traced phases of a traced run.
func (c runConfig) phaseSeconds() float64 {
	if c.Trace {
		return c.Seconds / 2
	}
	return c.Seconds
}

// result is what a workload hands back to main.
type result struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	// Problems lists every failed output check; any entry makes the run
	// incorrect.
	Problems []string
	// Notes are printed in the human-readable report (sample counts,
	// digests, span file).
	Notes []string
	// Layers is the traced run's per-span-name self-time table.
	Layers []layerRow
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// reading holds a wall-clock figure of the benchmark's own. The program
// never sees these values, so they are declared operational: the
// repository's determinism lint then stops following them here instead
// of flagging every structure they pass through.
type reading struct {
	//ube:operational benchmark timing figure; never reaches the program under test
	v float64
}

// sinceMs returns the milliseconds elapsed since t0.
func sinceMs(t0 time.Time) float64 {
	var r reading
	r.v = float64(time.Since(t0).Nanoseconds()) / 1e6
	return r.v
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return sinceMs(t0) / 1e3, err
}

// setupTimer collects repeated set-up builds; setup_s is their median.
// Set-ups that take milliseconds are too noisy to time once, and a burst
// of machine noise at one moment of a run should not decide the figure,
// so a workload takes half its builds before the timed phase and half
// after it.
type setupTimer struct {
	samples []float64
	// refs[i] is the reference kernel run right after build i, untimed.
	refs []float64
}

// sample times build reps times, each after collecting garbage; undo,
// when non-nil, runs untimed after each build.
func (t *setupTimer) sample(reps int, build func() error, undo func()) error {
	for i := 0; i < reps; i++ {
		settle()
		s, err := timed(build)
		if undo != nil {
			undo()
		}
		if err != nil {
			return err
		}
		t.samples = append(t.samples, s)
		t.refs = append(t.refs, ref.run())
	}
	return nil
}

// median reports the samples' range and returns their median.
func (t *setupTimer) median(res *result) float64 {
	sorted := append([]float64(nil), t.samples...)
	sort.Float64s(sorted)
	res.note("set-up: median %.6f s of %d builds (min %.6f, max %.6f)", median(sorted), len(sorted), sorted[0], sorted[len(sorted)-1])
	return median(sorted)
}

// settle collects garbage twice so a timed phase starts, and a heap
// reading is taken, without garbage left by earlier work.
func settle() {
	runtime.GC()
	runtime.GC()
}

// liveHeapMB is the live heap after two forced collections, in MiB. The
// caller keeps the workload's state reachable across the call.
func liveHeapMB() float64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// usage is a reading of the process-wide allocation, GC and CPU-time
// counters, or the difference between two readings.
type usage struct {
	alloc uint64  // bytes allocated
	gcs   uint32  // completed GC cycles
	cpuMs float64 // user + system CPU time of the whole process
}

// usageNow reads the counters. CPU time comes from getrusage: it counts
// only time the process's threads ran, so unlike wall time it leaves out
// time the machine lent the CPU to other tenants (steal), though not the
// slowdown from sharing caches and cores with them.
func usageNow() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{alloc: ms.TotalAlloc, gcs: ms.NumGC, cpuMs: cpuNowMs()}
}

// cpuNowMs is the user + system CPU time the whole process has used so
// far, in ms (getrusage, nanosecond-accurate on Linux).
func cpuNowMs() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	var r reading
	r.v = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	return r.v
}

// opClock times one operation: by the wall clock, which is what the
// caller waits, and by the process's CPU time, which is what the
// operation costs. The CPU time is the operation's own only while the
// process does nothing else, so every timed phase runs its operations
// one at a time. The time the host lends a busy vCPU to other tenants
// (steal) lands in the wall-clock figure and not in the CPU time.
type opClock struct {
	//ube:operational benchmark timing figure; never reaches the program under test
	t0   time.Time
	cpu0 float64
}

func startOp() opClock { return opClock{t0: time.Now(), cpu0: cpuNowMs()} }

// opCost is one operation's wall and CPU time, in ms.
type opCost struct{ wallMs, cpuMs float64 }

func (c opClock) stop() opCost {
	cpu := cpuNowMs()
	return opCost{wallMs: sinceMs(c.t0), cpuMs: cpu - c.cpu0}
}

func (u usage) sub(o usage) usage {
	return usage{alloc: u.alloc - o.alloc, gcs: u.gcs - o.gcs, cpuMs: u.cpuMs - o.cpuMs}
}

func (u usage) add(o usage) usage {
	return usage{alloc: u.alloc + o.alloc, gcs: u.gcs + o.gcs, cpuMs: u.cpuMs + o.cpuMs}
}

// phase accumulates one timed phase: per-operation latencies and the
// qualities of the first operations in deterministic order.
type phase struct {
	latMs []float64 // wall time per operation
	cpuMs []float64 // process CPU time per operation
	refMs []float64 // CPU time of the reference kernel run after each one
	// The same for session creates.
	createMs, createCPU, createRef []float64
	quality                        map[int]float64
	attempted                      int
	failed                         int
	wall                           float64 // seconds from the first operation to the last
	paused                         float64 // seconds of untimed checking inside the phase
	// used is what the timed operations consumed: the phase's usage
	// minus that of the untimed checks inside it (pausedUse).
	used      usage
	pausedUse usage
}

func newPhase() *phase { return &phase{quality: map[int]float64{}} }

// pause runs an untimed check inside the phase: its wall time and usage,
// and that of the collection of its garbage, count against neither the
// phase's throughput nor its per-operation usage.
func (p *phase) pause(check func()) {
	t0, u0 := time.Now(), usageNow()
	check()
	runtime.GC()
	p.pausedUse = p.pausedUse.add(usageNow().sub(u0))
	p.paused += sinceMs(t0) / 1e3
}

// addOp records a completed operation and runs the reference kernel
// after it, outside the phase's active time and usage.
func (p *phase) addOp(c opCost) {
	p.latMs = append(p.latMs, c.wallMs)
	p.cpuMs = append(p.cpuMs, c.cpuMs)
	p.refMs = append(p.refMs, p.runRef())
}

// addCreate records a session create like addOp.
func (p *phase) addCreate(c opCost) {
	p.createMs = append(p.createMs, c.wallMs)
	p.createCPU = append(p.createCPU, c.cpuMs)
	p.createRef = append(p.createRef, p.runRef())
}

func (p *phase) runRef() float64 {
	t0 := time.Now()
	ms := ref.run()
	p.paused += sinceMs(t0) / 1e3
	p.pausedUse.cpuMs += ms
	return ms
}

// finish records the phase's usage since u0, less the paused checks'.
func (p *phase) finish(u0 usage) {
	p.used = usageNow().sub(u0).sub(p.pausedUse)
}

// perOp returns the timed operations' allocation (MiB) and GC cycles per
// operation, for the traced run's go.* metrics.
func (p *phase) perOp() (allocMB, gcs float64) {
	if len(p.latMs) == 0 {
		return 0, 0
	}
	n := float64(len(p.latMs))
	return float64(p.used.alloc) / (1 << 20) / n, float64(p.used.gcs) / n
}

// cpuPerOp is the process CPU time of the phase per completed operation,
// in ms.
func (p *phase) cpuPerOp() float64 {
	if len(p.latMs) == 0 {
		return 0
	}
	return p.used.cpuMs / float64(len(p.latMs))
}

// costPerOp is cpuPerOp in reference-kernel units: the phase's CPU time
// per operation over the median kernel run.
func (p *phase) costPerOp() float64 {
	r := median(p.refMs)
	if r <= 0 {
		return 0
	}
	return p.cpuPerOp() / r
}

func (p *phase) opsPerSecond() float64 {
	active := p.wall - p.paused
	if active <= 0 {
		return 0
	}
	return float64(len(p.latMs)) / active
}

// endToEnd turns an untraced phase into the end-to-end metrics: the
// timings in reference-kernel units (see refkernel.go), quality, heap
// and completion. The report prints the same timings in ms of CPU time
// and by the wall clock beside them, ungated: the host's speed moves
// those by more than any bound a regression gate could use.
func (p *phase) endToEnd(cfg runConfig, setupS, heapMB float64, res *result) {
	m := res.Metrics
	m["setup_s"] = setupS
	m["heap_live_mb"] = heapMB
	m["cost_per_op_ref"] = p.costPerOp()
	if p.attempted > 0 {
		m["completed_share"] = float64(p.attempted-p.failed) / float64(p.attempted)
	}
	beyond, createBeyond := 10, 2
	if cfg.Smoke {
		beyond, createBeyond = 0, 0
	}
	pct := func(name string, xs []float64, q float64, minBeyond int) float64 {
		v, err := quantile(xs, q, minBeyond)
		if err != nil {
			res.problem("%s: %v", name, err)
		}
		return v
	}
	cost := inRefUnits(p.cpuMs, p.refMs)
	m["cost_p50_ref"] = pct("cost_p50_ref", cost, 0.50, beyond)
	m["cost_p95_ref"] = pct("cost_p95_ref", cost, 0.95, beyond)
	m["create_cost_p50_ref"] = pct("create_cost_p50_ref", inRefUnits(p.createCPU, p.createRef), 0.50, createBeyond)
	n := cfg.qualityOps()
	var qs []float64
	for i := 0; i < n; i++ {
		q, ok := p.quality[i]
		if !ok {
			res.problem("quality_mean: operation %d of the first %d did not complete", i, n)
			break
		}
		qs = append(qs, q)
	}
	m["quality_mean"] = mean(qs)
	res.note("samples: %d operations (p95 has %d beyond it), %d creates, quality over the first %d operations",
		len(p.latMs), int(math.Floor(0.05*float64(len(p.latMs)))), len(p.createMs), n)
	res.note("failed_share: %d/%d; cpu: %.1f s of process CPU time over %.1f s of operations", p.failed, p.attempted, p.used.cpuMs/1e3, p.wall-p.paused)
	res.note("reference kernel: median %.4f ms of CPU time over %d runs (min %.4f, max %.4f)",
		median(p.refMs), len(p.refMs), minOf(p.refMs), maxOf(p.refMs))
	res.note("CPU time (not gated): cpu_p50_ms %.4g, cpu_p95_ms %.4g, cpu_ms_per_op %.4g, create_cpu_p50_ms %.4g",
		pct("cpu_p50_ms", p.cpuMs, 0.50, beyond), pct("cpu_p95_ms", p.cpuMs, 0.95, beyond),
		p.cpuPerOp(), pct("create_cpu_p50_ms", p.createCPU, 0.50, createBeyond))
	res.note("wall clock (not gated): latency_p50_ms %.4g, latency_p95_ms %.4g, ops_per_s %.4g, create_p50_ms %.4g",
		pct("latency_p50_ms", p.latMs, 0.50, beyond), pct("latency_p95_ms", p.latMs, 0.95, beyond),
		p.opsPerSecond(), pct("create_p50_ms", p.createMs, 0.50, createBeyond))
}

// digest folds a sequence of solutions into a short hash of their source
// sets and exact qualities, so two runs of one commit and seed can be
// compared by one line.
type digest struct{ h []byte }

func (d *digest) add(op int, sources []int, quality float64) {
	var buf [8]byte
	sum := sha256.New()
	sum.Write(d.h)
	binary.LittleEndian.PutUint64(buf[:], uint64(op))
	sum.Write(buf[:])
	for _, s := range sources {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		sum.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(quality))
	sum.Write(buf[:])
	d.h = sum.Sum(nil)
}

func (d *digest) String() string {
	if d.h == nil {
		return "empty"
	}
	return hex.EncodeToString(d.h[:8])
}

// digestEntry is one operation's contribution to a digest.
type digestEntry struct {
	op      int
	sources []int
	quality float64
}

// digestOf digests the first n entries.
func digestOf(entries []digestEntry, n int) string {
	var d digest
	for i := 0; i < n && i < len(entries); i++ {
		d.add(entries[i].op, entries[i].sources, entries[i].quality)
	}
	return d.String()
}

// checkSolution verifies one solve's output against its problem: the
// solution is feasible, contains every pinned or implied source (C ⊆ S)
// and selects at most m sources.
func checkSolution(p engine.Problem, sol *engine.Solution) error {
	if sol == nil {
		return fmt.Errorf("no solution")
	}
	if !sol.Feasible {
		return fmt.Errorf("infeasible solution")
	}
	if len(sol.Sources) > p.MaxSources {
		return fmt.Errorf("%d sources selected, m = %d", len(sol.Sources), p.MaxSources)
	}
	have := make(map[int]bool, len(sol.Sources))
	for _, s := range sol.Sources {
		have[s] = true
	}
	for _, c := range p.Constraints.ImpliedSources() {
		if !have[c] {
			return fmt.Errorf("pinned source %d missing from the solution", c)
		}
	}
	return nil
}

// engineStats folds the engine's own solve traces: the counters and the
// solve/setup/search/final span durations.
type engineStats struct {
	solves   int
	counts   trace.Counts
	solveMs  []float64
	setupMs  []float64
	finalMs  []float64
	searchNs int64
}

func (s *engineStats) add(tr *trace.Trace) {
	if tr == nil {
		return
	}
	s.solves++
	tot := tr.Totals()
	for i := range tot {
		s.counts[i] += tot[i]
	}
	for _, sp := range tr.Spans {
		ms := float64(sp.Dur) / 1e6
		switch {
		case sp.Parent == -1 && sp.Name == "solve":
			s.solveMs = append(s.solveMs, ms)
		case sp.Name == "setup":
			s.setupMs = append(s.setupMs, ms)
		case sp.Name == "final":
			s.finalMs = append(s.finalMs, ms)
		case sp.Name == "search":
			s.searchNs += sp.Dur
		}
	}
}

func (s *engineStats) perSolve(c trace.Counter) float64 {
	if s.solves == 0 {
		return 0
	}
	return float64(s.counts[c]) / float64(s.solves)
}

// cloneUniverse copies a universe deeply enough that churn on the copy
// leaves the original alone (immutable sketches stay shared).
func cloneUniverse(u *model.Universe) *model.Universe {
	out := &model.Universe{Sources: append([]model.Source(nil), u.Sources...)}
	for i := range out.Sources {
		s := &out.Sources[i]
		s.Attributes = append([]string(nil), s.Attributes...)
		s.AttrSignatures = append([]*pcsa.Sketch(nil), s.AttrSignatures...)
		if s.Characteristics != nil {
			cc := make(map[string]float64, len(s.Characteristics))
			for k, v := range s.Characteristics {
				cc[k] = v
			}
			s.Characteristics = cc
		}
	}
	return out
}
