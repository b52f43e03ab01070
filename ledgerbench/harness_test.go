package main

import "testing"

var sink []byte

// TestPauseExcludedFromUsage: an untimed check run through phase.pause —
// its allocation and the collection of its garbage — counts against
// neither the phase's per-operation usage nor its active time.
func TestPauseExcludedFromUsage(t *testing.T) {
	const checkBytes = 64 << 20
	p := newPhase()
	p.latMs = []float64{1}
	settle()
	u0 := usageNow()
	p.pause(func() {
		sink = make([]byte, checkBytes)
		sink = nil
	})
	p.finish(u0)
	if p.pausedUse.alloc < checkBytes {
		t.Fatalf("paused allocation %d B, want at least %d", p.pausedUse.alloc, checkBytes)
	}
	if p.used.alloc >= checkBytes/8 {
		t.Fatalf("phase usage %d B includes the paused check's %d B", p.used.alloc, checkBytes)
	}
	if p.pausedUse.gcs < 1 || p.used.gcs != 0 {
		t.Fatalf("GC cycles: %d paused, %d charged to the phase; want ≥ 1 and 0", p.pausedUse.gcs, p.used.gcs)
	}
	if p.paused <= 0 {
		t.Fatalf("paused time %v s, want > 0", p.paused)
	}
	if allocMB, gcs := p.perOp(); allocMB >= 8 || gcs > 0 {
		t.Fatalf("per operation: %v MiB, %v GCs; the check leaked into them", allocMB, gcs)
	}
}
