// Package faultinject is the seeded, deterministic fault-injection layer
// behind the chaos suite (see DESIGN.md §10). Production code declares
// named injection points (the admission queue, the worker pool's solve
// boundary, the SSE writer, the audit log, the janitor, the engine's
// snapshot cache); a chaos run arms them with a Plan — a JSON schedule of
// (point, trigger, action) entries — and every run is replayable from the
// plan plus its seed because firing is a pure function of per-point
// arrival counts, never of the clock or the scheduler.
//
// The package is stdlib-only and dependency-free within the module so any
// layer (server, engine) can declare points without import cycles. A nil
// *Injector is the disarmed state: every method no-ops, so production
// call sites need no guards and pay one nil check when faults are off.
package faultinject

import (
	"fmt"
	"sync"
)

// Point names one injection site. The catalog is closed: plans referring
// to unknown points fail validation, so a typo cannot silently disarm a
// chaos scenario.
type Point string

const (
	// QueueOverflow forces the admission queue to report "full" so the
	// client gets 429 + Retry-After regardless of actual depth.
	QueueOverflow Point = "queue.overflow"
	// WorkerPanic panics a worker at the solve boundary; the service
	// must recover it into a 500 and keep the session's work token
	// protocol intact.
	WorkerPanic Point = "worker.panic"
	// WorkerStall blocks a worker for Arg milliseconds before the solve,
	// bounded by the per-solve deadline (504 + Retry-After when it
	// expires).
	WorkerStall Point = "worker.stall"
	// SSESlowClient drops one published SSE frame, simulating a
	// subscriber too slow to drain its buffer.
	SSESlowClient Point = "sse.slow-client"
	// AuditWriteError drops one audit line, simulating a failed write to
	// the audit sink; the server counts the loss so /metrics↔audit
	// reconciliation stays checkable.
	AuditWriteError Point = "audit.write-error"
	// SolveCancelMidway cancels a solve from inside the engine after Arg
	// objective evaluations; the session must be left untouched, exactly
	// as for a client-initiated cancellation.
	SolveCancelMidway Point = "solve.cancel-midway"
	// SnapshotEvict discards the engine's incumbent base state so the
	// next edit-evaluated move rebuilds it; results must be unchanged
	// (the cache is a pure memo).
	SnapshotEvict Point = "snapshot.evict"
	// JanitorEvict forces one janitor sweep to treat every idle session
	// as expired, regardless of TTL.
	JanitorEvict Point = "janitor.evict"
	// WALWriteError fails one write-ahead-log append, simulating a full
	// or failing disk under the durability layer; the server must refuse
	// the un-durable commit (full undo + 503) and count the failure.
	WALWriteError Point = "wal.write-error"
	// WALFsyncStall delays one WAL group-commit fsync by Arg
	// milliseconds, stretching commit latency without losing anything.
	WALFsyncStall Point = "wal.fsync-stall"
	// RecoveryTruncatedTail drops the last Arg records from the clean
	// prefix during WAL recovery, simulating a torn tail wider than one
	// frame; recovery must come up with the shorter, still-clean prefix.
	RecoveryTruncatedTail Point = "recovery.truncated-tail"
	// RouterShardKill marks a shard dead at the router's solve-proxy
	// boundary: the target shard of the triggering request (or, with
	// Arg > 0, shard index Arg-1) stops receiving traffic permanently —
	// probes never readmit it — so its sessions surface as clean 503s
	// while other shards' sessions must stay bit-identical.
	RouterShardKill Point = "router.shard-kill"
	// RouterPartition drops routed solve requests at the router while
	// the entry covers their arrivals (use Repeat for the partition's
	// width), returning 503 + Retry-After; when the entry stops
	// covering, traffic flows again and retried sessions must converge
	// on the fault-free histories.
	RouterPartition Point = "router.partition"
	// ChurnMidway panics a worker midway through a universe-mutation
	// (churn) job, after validation but before anything is logged or
	// applied; the service must recover it into a 500 with the session's
	// universe, WAL and mirrors all untouched, so the histories with and
	// without the fault stay bit-identical.
	ChurnMidway Point = "churn.midway"
	// ChurnConflict forces a churn job to report a pinned-source
	// conflict (409) regardless of the batch's contents, exercising the
	// refusal path — batch rejected wholesale, universe untouched —
	// deterministically.
	ChurnConflict Point = "churn.conflict"
)

// Points is the full injection-point catalog in stable order.
var Points = []Point{
	QueueOverflow,
	WorkerPanic,
	WorkerStall,
	SSESlowClient,
	AuditWriteError,
	SolveCancelMidway,
	SnapshotEvict,
	JanitorEvict,
	WALWriteError,
	WALFsyncStall,
	RecoveryTruncatedTail,
	RouterShardKill,
	RouterPartition,
	ChurnMidway,
	ChurnConflict,
}

// actions maps each point to its single legal action verb. One verb per
// point keeps plans self-describing without an open-ended action space.
var actions = map[Point]string{
	QueueOverflow:         "reject",
	WorkerPanic:           "panic",
	WorkerStall:           "stall",
	SSESlowClient:         "drop",
	AuditWriteError:       "drop",
	SolveCancelMidway:     "cancel",
	SnapshotEvict:         "evict",
	JanitorEvict:          "evict",
	WALWriteError:         "fail",
	WALFsyncStall:         "stall",
	RecoveryTruncatedTail: "truncate",
	RouterShardKill:       "kill",
	RouterPartition:       "drop",
	ChurnMidway:           "panic",
	ChurnConflict:         "reject",
}

// argRequired marks points whose entries must carry a positive Arg
// (stall duration in milliseconds, cancel-after evaluation count).
var argRequired = map[Point]bool{
	WorkerStall:           true,
	SolveCancelMidway:     true,
	WALFsyncStall:         true,
	RecoveryTruncatedTail: true,
}

// Entry schedules one fault: starting at the Trigger-th arrival at Point
// (1-based), fire Action for Repeat consecutive arrivals (default 1).
type Entry struct {
	Point   Point  `json:"point"`
	Trigger int    `json:"trigger"`
	Action  string `json:"action"`
	Repeat  int    `json:"repeat,omitempty"`
	Arg     int64  `json:"arg,omitempty"`
}

// repeat returns the effective repeat count.
func (e *Entry) repeat() int {
	if e.Repeat <= 0 {
		return 1
	}
	return e.Repeat
}

// covers reports whether the entry fires at the given arrival index.
func (e *Entry) covers(arrival int) bool {
	return arrival >= e.Trigger && arrival < e.Trigger+e.repeat()
}

// Plan is a replayable fault schedule. Seed identifies the run: the
// injector itself draws no randomness, but chaos drivers seed their
// client-side randomness (jitter, scripts) from it so "seed + plan"
// reproduces a whole run.
type Plan struct {
	Seed    int64   `json:"seed"`
	Entries []Entry `json:"entries"`
}

// Validate rejects malformed plans: unknown points, wrong action verbs,
// non-positive triggers, negative repeats, and missing or negative Args
// where the point requires one.
func (p *Plan) Validate() error {
	for i := range p.Entries {
		e := &p.Entries[i]
		want, ok := actions[e.Point]
		if !ok {
			return fmt.Errorf("faultinject: entry %d: unknown point %q", i, e.Point)
		}
		if e.Action != want {
			return fmt.Errorf("faultinject: entry %d: point %q takes action %q, not %q", i, e.Point, want, e.Action)
		}
		if e.Trigger < 1 {
			return fmt.Errorf("faultinject: entry %d: trigger %d < 1 (arrivals are 1-based)", i, e.Trigger)
		}
		if e.Repeat < 0 {
			return fmt.Errorf("faultinject: entry %d: negative repeat %d", i, e.Repeat)
		}
		if argRequired[e.Point] && e.Arg <= 0 {
			return fmt.Errorf("faultinject: entry %d: point %q requires a positive arg", i, e.Point)
		}
		if e.Arg < 0 {
			return fmt.Errorf("faultinject: entry %d: negative arg %d", i, e.Arg)
		}
	}
	return nil
}

// Firing records one fault that fired: which point, with what action and
// argument, at which arrival index.
type Firing struct {
	Point   Point
	Action  string
	Arg     int64
	Arrival int
}

// Injector arms a validated plan. Fire is the single hot-path entry:
// each call counts one arrival at a point and returns the scheduled
// Firing when the plan covers that arrival, nil otherwise. All state is
// mutex-guarded arrival counters, so firing depends only on how many
// times each point was reached — replayable wherever the workload itself
// is deterministic.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	arrivals map[Point]int
	firings  []Firing
}

// New validates the plan and arms it.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	// Deep-copy entries so later mutation of the caller's plan cannot
	// change an armed schedule.
	plan.Entries = append([]Entry(nil), plan.Entries...)
	return &Injector{plan: plan, arrivals: make(map[Point]int)}, nil
}

// MustNew is New for tests and fixtures with known-good plans.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Seed returns the armed plan's seed; 0 on a nil (disarmed) injector.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.plan.Seed
}

// Plan returns a copy of the armed plan; the zero Plan on a nil injector.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return Plan{Seed: in.plan.Seed, Entries: append([]Entry(nil), in.plan.Entries...)}
}

// Fire counts one arrival at point and returns the scheduled firing, or
// nil when nothing is scheduled for that arrival. Nil receivers no-op,
// so production call sites need no guards.
func (in *Injector) Fire(point Point) *Firing {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.arrivals[point]++
	arrival := in.arrivals[point]
	for i := range in.plan.Entries {
		e := &in.plan.Entries[i]
		if e.Point != point || !e.covers(arrival) {
			continue
		}
		f := Firing{Point: point, Action: e.Action, Arg: e.Arg, Arrival: arrival}
		in.firings = append(in.firings, f)
		return &f
	}
	return nil
}

// Arrivals reports how many times Fire was called for point.
func (in *Injector) Arrivals(point Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.arrivals[point]
}

// FiredCount reports how many firings point has produced.
func (in *Injector) FiredCount(point Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, f := range in.firings {
		if f.Point == point {
			n++
		}
	}
	return n
}

// Firings returns every firing so far, in fire order.
func (in *Injector) Firings() []Firing {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Firing(nil), in.firings...)
}
