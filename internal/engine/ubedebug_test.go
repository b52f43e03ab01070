//go:build ubedebug

package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"ube/internal/synth"
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

// TestChurnAuditRuns proves the sampled churn audit is live under the
// ubedebug tag: with every call sampled, each committed batch runs the
// full Validate and compares the rebased QEF context with NewContext
// (a divergence panics the commit), and the solve after the batches
// traces byte-identically to one with the audits disarmed.
func TestChurnAuditRuns(t *testing.T) {
	cfg := synth.QuickConfig(40)
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: 9, Steps: 12, MinSources: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(every uint64) ([]byte, uint64) {
		prev := ubedebug.SetAuditEvery(every)
		defer ubedebug.SetAuditEvery(prev)
		e, err := New(cloneUniverse(base))
		if err != nil {
			t.Fatal(err)
		}
		before := ubedebug.Audited()
		for _, muts := range batches {
			if _, err := e.ApplyChurn(muts); err != nil {
				t.Fatal(err)
			}
		}
		audits := ubedebug.Audited() - before
		p := smallProblem()
		tr := trace.New()
		p.Trace = tr
		if _, err := e.Solve(&p); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(tr.Finish().Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return data, audits
	}
	armed, audits := run(1)
	disarmed, _ := run(math.MaxUint64)
	if audits != uint64(len(batches)) {
		t.Fatalf("%d churn audits ran over %d batches with every call sampled", audits, len(batches))
	}
	if !bytes.Equal(armed, disarmed) {
		t.Fatalf("canonical traces differ with the churn audits armed:\n--- armed\n%s\n--- disarmed\n%s", armed, disarmed)
	}
}

// TestClosedFormAuditsRun solves with every sampled audit firing, at
// Workers 1 and 4. Each component decided in closed form is then
// re-clustered by the agenda and compared bit for bit (a divergence
// panics the solve), so the audits must number at least the closed-form
// components the trace counts; every other audit kind fires at most a
// few times per evaluation, far fewer. The canonical trace must be
// byte-identical to one with the audits disarmed.
func TestClosedFormAuditsRun(t *testing.T) {
	e, _ := testEngine(t, 40)
	solve := func(every uint64, workers int) ([]byte, int64, uint64) {
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
		fin := tr.Finish()
		data, err := json.Marshal(fin.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return data, fin.Totals()[trace.CClusterClosed], ubedebug.Audited() - before
	}
	for _, workers := range []int{1, 4} {
		armed, closed, audits := solve(1, workers)
		disarmed, _, _ := solve(math.MaxUint64, workers)
		if closed == 0 || audits < uint64(closed) {
			t.Fatalf("workers=%d: %d audits ran over %d closed-form components with every call sampled", workers, audits, closed)
		}
		if !bytes.Equal(armed, disarmed) {
			t.Fatalf("workers=%d: canonical traces differ with the closed-form audits armed:\n--- armed\n%s\n--- disarmed\n%s", workers, armed, disarmed)
		}
	}
}
