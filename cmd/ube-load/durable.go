// Durable mode (-kill-after N): a real kill -9 against a WAL-backed
// server child, then recovery verification. The server lives in a
// re-exec'd child (see spawnChild) so SIGKILL means what it means in
// production — no deferred flushes, no atexit, no goroutine shutdown.
// ube-load plays the script against the child and SIGKILLs it with the
// (N+1)th solve in flight, then restarts it on the same WAL. Recovery
// must hand back every acknowledged iteration byte for byte, and the
// finished script must match an uninterrupted reference run. The
// verdicts and recovery timing land in BENCH_durable.json.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ube/internal/schemaio"
)

// durableBenchDoc is the BENCH_durable.json schema: the crash-recovery
// verdicts plus how long recovery took.
type durableBenchDoc struct {
	Sources         int     `json:"sources"`
	Iters           int     `json:"iters"`
	KillAfter       int     `json:"killAfter"`
	AckedAtKill     int     `json:"ackedSolvesAtKill"`
	RecoveredIters  int     `json:"recoveredIterations"`
	RecoveryMs      float64 `json:"recoveryMs"`
	BitIdentical    bool    `json:"recoveredBitIdentical"`
	FinalMatchesRef bool    `json:"finalMatchesReference"`
	WALRecovery     any     `json:"walRecovery,omitempty"`
}

// runDurable plays the crash-recovery scenario end to end and writes
// BENCH_durable.json. Any violated invariant is an error. o is a copy:
// its -wal-dir is filled in for the children.
func runDurable(o options, stdout io.Writer) error {
	f, err := catalogFleet(&o)
	if err != nil {
		return err
	}

	// Uninterrupted reference: the same script against an in-process
	// server without a WAL. The engine is deterministic, so the
	// crashed-and-recovered run must land on this exact history (timing
	// aside).
	noWAL := o
	noWAL.walDir = ""
	ref, err := reference(&noWAL, f)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if o.walDir == "" {
		dir, err := os.MkdirTemp("", "ube-load-wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		o.walDir = dir
	}

	// Phase 1: the doomed child. Script until killAfter acks, capture
	// what was acknowledged, then SIGKILL — with the next solve already
	// in flight, so the crash lands mid-write, not at a tidy boundary.
	c1, err := spawnChild(&o)
	if err != nil {
		return err
	}
	defer c1.kill()
	u := f.newUser(o.seed)
	if err := u.create(c1.base); err != nil {
		return err
	}
	if err := u.edits(0, o.killAfter); err != nil {
		return err
	}
	acked, err := u.history()
	if err != nil {
		return err
	}
	if len(acked) != o.killAfter {
		return fmt.Errorf("server acknowledged %d solves but serves %d iterations", o.killAfter, len(acked))
	}
	inFlight := make(chan error, 1)
	go func() { inFlight <- u.edits(o.killAfter, o.killAfter+1) }()
	c1.kill()
	<-inFlight // connection error or a racing success; either is a valid crash

	// Phase 2: resume on the same WAL. Everything acknowledged must come
	// back byte-for-byte; the in-flight solve may or may not have
	// committed — both are honest crash outcomes.
	//ube:nondeterministic-ok recovery wall-clock measurement for the bench report
	t0 := time.Now()
	c2, err := spawnChild(&o)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	//ube:nondeterministic-ok recovery wall-clock measurement for the bench report
	recoveryMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	defer c2.kill()
	u.url = c2.base + strings.TrimPrefix(u.url, c1.base)
	recovered, err := u.history()
	if err != nil {
		return fmt.Errorf("resume: recovered session: %w", err)
	}

	// Phase 3: finish the script from wherever recovery landed and
	// compare the full history against the uninterrupted reference.
	u.last = nil
	if len(recovered) > 0 {
		u.last = recovered[len(recovered)-1].Solution.Sources
	}
	if err := u.edits(len(recovered), o.iters); err != nil {
		return fmt.Errorf("resume %w", err)
	}
	final, err := u.history()
	if err != nil {
		return err
	}
	if err := checkDurable(acked, recovered, final, ref); err != nil {
		return err
	}

	var metrics struct {
		WALRecovery any `json:"walRecovery"`
	}
	_ = getJSON(f.cl, c2.base+"/metrics", &metrics)
	return writeBench(stdout, o.out, &durableBenchDoc{
		Sources:         f.sources,
		Iters:           o.iters,
		KillAfter:       o.killAfter,
		AckedAtKill:     len(acked),
		RecoveredIters:  len(recovered),
		RecoveryMs:      recoveryMs,
		BitIdentical:    true,
		FinalMatchesRef: true,
		WALRecovery:     metrics.WALRecovery,
	})
}

// checkDurable requires recovery to hand back every acknowledged
// iteration byte for byte, plus at most the solve that was in flight
// at the kill, and the finished script to equal the uninterrupted
// reference, timing aside.
func checkDurable(acked, recovered, final, ref []schemaio.IterationDoc) error {
	if len(recovered) < len(acked) || len(recovered) > len(acked)+1 {
		return fmt.Errorf("recovered %d iterations; want %d acknowledged (+1 if the in-flight solve committed)", len(recovered), len(acked))
	}
	for i := range acked {
		if got, want := hash(recovered[i]), hash(acked[i]); got != want {
			return fmt.Errorf("recovered iteration %d is not bit-identical to the acknowledged one: digest %s, want %s", i, got, want)
		}
	}
	if got, want := hash(canonical(final, canonTiming)), hash(canonical(ref, canonTiming)); got != want {
		return fmt.Errorf("post-recovery history diverged from the uninterrupted reference: digest %s, want %s", got, want)
	}
	return nil
}
