package main

// Chaos mode: replayable fault injection against the in-process server.
//
// A fault plan (JSON, see internal/faultinject) arms the server's named
// injection points; the scripted users then run exactly as in benchmark
// mode, retrying transient failures, while the plan fires. A fault-free
// reference run of the same script defines ground truth, and three
// invariants are checked:
//
//  1. Clean prefix — every session history is the full scripted history
//     or a clean prefix of it (a user that exhausted its retry budget).
//  2. Bit-identical survivors — with wall-clock timing and match-cache
//     traffic zeroed, surviving iterations equal the reference's.
//  3. Reconciliation — admitted = completed + errored + cancelled +
//     panicked + timed out, the queue drains to zero, and the audit log
//     accounts for every solve up to the counted dropped lines.
//
// Violations exit non-zero and print the seed plus the plan JSON — the
// complete recipe to replay the run.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"

	"ube/internal/faultinject"
	"ube/internal/schemaio"
)

// chaosMetricsDoc is the subset of /metrics the reconciliation invariant
// reads.
type chaosMetricsDoc struct {
	SolvesAdmitted  int64 `json:"solvesAdmitted"`
	Solves          int64 `json:"solves"`
	SolveErrors     int64 `json:"solveErrors"`
	SolvesCancelled int64 `json:"solvesCancelled"`
	SolvePanics     int64 `json:"solvePanics"`
	SolveTimeouts   int64 `json:"solveTimeouts"`
	QueueRejections int64 `json:"queueRejections"`
	QueueDepth      int64 `json:"queueDepth"`
	InFlight        int64 `json:"inFlight"`
	AuditDropped    int64 `json:"auditLinesDropped"`
}

// syncWriter is a mutex-guarded audit sink for the chaos server.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func runChaos(o *options, stdout io.Writer) error {
	raw, err := os.ReadFile(o.chaos)
	if err != nil {
		return err
	}
	plan, err := schemaio.DecodeFaultPlanBytes(raw)
	if err != nil {
		return err
	}
	replay := fmt.Sprintf("replay: seed=%d plan=%s\n%s", plan.Seed, o.chaos, raw)
	f, err := catalogFleet(o)
	if err != nil {
		return err
	}

	// Fault-free reference: every user runs the identical script against
	// an identical session, so one sequential user defines ground truth.
	log.Printf("chaos: reference run (%d iterations, fault-free)", o.iters)
	ref, err := reference(o, f)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	prefixes := make([]string, len(ref))
	for k := range ref {
		prefixes[k] = hash(canonical(ref[:k+1], canonOperational))
	}

	// Chaos run: same script, N concurrent users, plan armed.
	inj := faultinject.MustNew(plan)
	log.Printf("chaos: fault run (%d users × %d iterations, plan %s, seed %d)", o.users, o.iters, o.chaos, plan.Seed)
	audit := &syncWriter{}
	srv, base, stop, err := startServer(o, inj, audit)
	if err != nil {
		return err
	}
	defer stop()
	users, _ := f.run(base, o.users, canonOperational, editScript(o.iters))
	for i, u := range users {
		if u.err != nil {
			return fmt.Errorf("chaos run: user %d: %w", i, u.err)
		}
	}
	if err := drain(srv); err != nil {
		return fmt.Errorf("chaos run: shutdown: %w", err)
	}
	var metrics chaosMetricsDoc
	if err := getJSON(f.cl, base+"/metrics", &metrics); err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}

	violations := chaosViolations(prefixes, users, &metrics, audit.String())
	completed := 0
	for _, u := range users {
		completed += u.steps
	}
	log.Printf("chaos: %d faults fired, %d/%d iterations survived, admitted %d (done %d, cancelled %d, panics %d, timeouts %d, rejected %d)",
		len(inj.Firings()), completed, o.users*o.iters, metrics.SolvesAdmitted,
		metrics.Solves, metrics.SolvesCancelled, metrics.SolvePanics, metrics.SolveTimeouts, metrics.QueueRejections)
	if len(violations) > 0 {
		return fmt.Errorf("chaos invariants violated:\n  - %s\n%s", strings.Join(violations, "\n  - "), replay)
	}
	fmt.Fprintf(stdout, "chaos: OK — all invariants hold under plan %s (seed %d)\n", o.chaos, plan.Seed)
	return nil
}

// chaosViolations checks the three invariants. prefixes[k] is the
// digest of the reference history's first k+1 iterations; users carry
// digests canonicalised alike.
func chaosViolations(prefixes []string, users []*user, metrics *chaosMetricsDoc, audit string) []string {
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	// Invariants 1 and 2: clean, bit-identical prefixes.
	iters := len(prefixes)
	for i, u := range users {
		n := u.steps
		if n > iters {
			fail("user %d: history has %d iterations, script only has %d", i, n, iters)
			continue
		}
		if n > 0 && u.digest != prefixes[n-1] {
			fail("user %d: surviving history (%d iterations) diverges from the fault-free reference", i, n)
		}
		if !u.abandoned && n != iters {
			fail("user %d: completed only %d/%d iterations without abandoning", i, n, iters)
		}
	}

	// Invariant 3: counters and audit log reconcile.
	terminal := metrics.Solves + metrics.SolveErrors + metrics.SolvesCancelled + metrics.SolvePanics + metrics.SolveTimeouts
	if metrics.SolvesAdmitted != terminal {
		fail("metrics do not reconcile: admitted %d != done %d + errors %d + cancelled %d + panics %d + timeouts %d",
			metrics.SolvesAdmitted, metrics.Solves, metrics.SolveErrors, metrics.SolvesCancelled, metrics.SolvePanics, metrics.SolveTimeouts)
	}
	if metrics.QueueDepth != 0 || metrics.InFlight != 0 {
		fail("drained server still reports queueDepth %d, inFlight %d", metrics.QueueDepth, metrics.InFlight)
	}
	counts := map[string]int64{}
	scanner := bufio.NewScanner(strings.NewReader(audit))
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var e struct {
			Action string `json:"action"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			fail("unparseable audit line %q: %v", scanner.Text(), err)
			continue
		}
		counts[e.Action]++
	}
	enqueued := counts["solve.enqueue"]
	terminalLines := counts["solve.done"] + counts["solve.error"] + counts["solve.cancelled"] +
		counts["solve.panic"] + counts["solve.timeout"]
	if enqueued > metrics.SolvesAdmitted || terminalLines > metrics.SolvesAdmitted {
		fail("audit log records more solves than admitted: enqueue %d, terminal %d, admitted %d",
			enqueued, terminalLines, metrics.SolvesAdmitted)
	}
	if deficit := (metrics.SolvesAdmitted - enqueued) + (metrics.SolvesAdmitted - terminalLines); deficit > metrics.AuditDropped {
		fail("audit log is missing %d solve lines but only %d drops were counted", deficit, metrics.AuditDropped)
	}
	return violations
}
