//go:build ubedebug

package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"ube/internal/trace"
	"ube/internal/ubedebug"
)

// TestDeltaAuditRuns proves the sampled delta≡full audit is live under
// the ubedebug tag: a solve performs far more delta evaluations than the
// sampling period, so Audited must advance — and every audit that ran
// agreed (a divergence panics the solve).
func TestDeltaAuditRuns(t *testing.T) {
	prev := ubedebug.SetAuditEvery(1)
	defer ubedebug.SetAuditEvery(prev)
	e, _ := testEngine(t, 40)
	p := smallProblem()
	before := ubedebug.Audited()
	if _, err := e.Solve(&p); err != nil {
		t.Fatal(err)
	}
	if after := ubedebug.Audited(); after <= before {
		t.Fatalf("no delta≡full audits ran during the solve (before=%d after=%d, period=%d)",
			before, after, ubedebug.AuditEvery())
	}
}

// TestAuditLeavesCountersUnchanged solves with every sampled audit firing
// (memo hits re-run Algorithm 1, F1 checks its validity against
// MediatedSchema.ValidOn, edits against full evaluations) and with none,
// at Workers 1 and 4, and requires byte-identical canonical traces: the
// audits run outside every counted path.
func TestAuditLeavesCountersUnchanged(t *testing.T) {
	e, _ := testEngine(t, 40)
	solve := func(every uint64, workers int) ([]byte, uint64) {
		prev := ubedebug.SetAuditEvery(every)
		defer ubedebug.SetAuditEvery(prev)
		p := smallProblem()
		p.Workers = workers
		tr := trace.New()
		p.Trace = tr
		before := ubedebug.Audited()
		if _, err := e.Solve(&p); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(tr.Finish().Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return data, ubedebug.Audited() - before
	}
	for _, workers := range []int{1, 4} {
		armed, audits := solve(1, workers)
		disarmed, _ := solve(math.MaxUint64, workers)
		if audits == 0 {
			t.Fatalf("workers=%d: no audit ran with every call sampled", workers)
		}
		if !bytes.Equal(armed, disarmed) {
			t.Fatalf("workers=%d: canonical traces differ with the audits armed:\n--- armed\n%s\n--- disarmed\n%s", workers, armed, disarmed)
		}
	}
}
