package server

// The chaos suite: scripted users hammer an in-process server while a
// seeded fault plan (internal/faultinject) fires injected failures at
// the service's weak points. Because every fault is a pure function of
// arrival counts, a failing run is replayed exactly by re-running with
// the same plan — every failure message embeds the seed and the plan
// JSON for that purpose.
//
// Three invariants hold under every committed plan:
//
//  1. Clean prefix — each session's history is the full scripted
//     history or a clean prefix of it; faults never leave a torn or
//     reordered iteration behind.
//  2. Bit-identical survivors — canonicalized (wall-clock timing and
//     match-cache traffic zeroed, since retries warm the per-session
//     cache), every surviving iteration is byte-identical to the same
//     iteration of a fault-free reference run.
//  3. Reconciliation — after drain, every admitted solve is accounted
//     for: admitted = completed + errored + cancelled + panicked +
//     timed out, the queue is empty, and the audit log agrees with the
//     counters up to the injector's counted dropped lines.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/schemaio"
)

const (
	chaosUsers       = 4
	chaosIters       = 3
	chaosMaxAttempts = 12
	chaosPlanDir     = "testdata/chaosplans"
)

// chaosConfig is the service configuration every chaos run uses. The
// solve deadline is far above a healthy solve's wall-clock so only
// injected stalls ever hit it. A non-empty walDir makes the run
// durable — with fsync on, so the wal.fsync-stall point is reachable.
func chaosConfig(inj *faultinject.Injector, audit *syncBuffer, workers int, walDir string) Config {
	cfg := Config{
		Workers:           workers,
		QueueDepth:        16,
		SolveTimeout:      2 * time.Second,
		RetryAfterSeconds: 1,
		AuditWriter:       audit,
		FaultInjector:     inj,
	}
	if walDir != "" {
		cfg.WALDir = walDir
		cfg.WALFsync = true
	}
	return cfg
}

// planTouchesWAL reports whether a plan exercises the durability layer,
// which only exists when the run is configured with a WAL.
func planTouchesWAL(plan faultinject.Plan) bool {
	for _, e := range plan.Entries {
		switch e.Point {
		case faultinject.WALWriteError, faultinject.WALFsyncStall, faultinject.RecoveryTruncatedTail:
			return true
		}
	}
	return false
}

// chaosWALDir returns the WAL directory a plan's run should use: a
// fresh temp dir for WAL plans, empty (durability off) otherwise.
func chaosWALDir(t *testing.T, plan faultinject.Plan) string {
	t.Helper()
	if planTouchesWAL(plan) {
		return t.TempDir()
	}
	return ""
}

// chaosPlanNames lists the committed plan fixtures, sorted.
func chaosPlanNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(chaosPlanDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func loadChaosPlan(t *testing.T, name string) faultinject.Plan {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(chaosPlanDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := schemaio.DecodeFaultPlanBytes(data)
	if err != nil {
		t.Fatalf("plan %s: %v", name, err)
	}
	return plan
}

// replayBanner renders the reproduction recipe embedded in every chaos
// failure message: the seed plus the full plan JSON.
func replayBanner(name string, plan faultinject.Plan) string {
	data, err := schemaio.EncodeFaultPlan(&plan)
	if err != nil {
		return fmt.Sprintf("replay: plan %s, seed %d", name, plan.Seed)
	}
	return fmt.Sprintf("replay: plan %s, seed %d\n%s", name, plan.Seed, data)
}

// chaosPost is postJSON without *testing.T, safe for user goroutines.
func chaosPost(url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// chaosScript builds iteration k's solve request for the scripted user.
// Every edit depends only on the user's own successful results, so a
// retried request is bit-identical to the failed one (the server's
// full-undo contract makes the retry equivalent) and the fault-free
// reference run issues exactly the same sequence.
func chaosScript(k int, last *schemaio.SolutionDoc) solveRequest {
	switch {
	case k == 0:
		return solveRequest{}
	case k%3 == 1 && last != nil && len(last.Sources) > 0:
		return solveRequest{PinSources: []int{last.Sources[0]}}
	case k%3 == 2:
		theta := 0.7
		return solveRequest{Theta: &theta}
	default:
		return solveRequest{SetWeights: map[string]float64{"card": 0.5}}
	}
}

// chaosSolve posts one solve, retrying transient failures (429 queue
// rejection, 500 recovered panic, 503 injected cancel, 504 deadline)
// with the identical request. ok=false means the user exhausted its
// attempts and abandons the rest of its script — the clean-prefix case.
func chaosSolve(url string, req solveRequest) (sol *schemaio.SolutionDoc, ok bool, err error) {
	for attempt := 0; attempt < chaosMaxAttempts; attempt++ {
		status, body, err := chaosPost(url, req)
		if err != nil {
			return nil, false, err
		}
		switch status {
		case http.StatusOK:
			var sr solveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				return nil, false, fmt.Errorf("decoding solve response: %w", err)
			}
			return sr.Solution, true, nil
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			time.Sleep(20 * time.Millisecond)
		default:
			return nil, false, fmt.Errorf("solve: unexpected status %d: %s", status, body)
		}
	}
	return nil, false, nil
}

// chaosCreate creates the user's session, retrying transient refusals:
// a failed WAL append undoes the registration and answers 503, and the
// retried create is acknowledged under a fresh ID.
func chaosCreate(baseURL string, u *model.Universe, userIdx int) (string, error) {
	doc := testProblemDoc()
	doc.Seed = int64(1000 + userIdx)
	for attempt := 0; attempt < chaosMaxAttempts; attempt++ {
		status, body, err := chaosPost(baseURL+"/v1/sessions", createSessionRequest{Universe: u, Problem: doc})
		if err != nil {
			return "", err
		}
		switch status {
		case http.StatusCreated:
			var info sessionInfo
			if err := json.Unmarshal(body, &info); err != nil {
				return "", err
			}
			return info.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(20 * time.Millisecond)
		default:
			return "", fmt.Errorf("create session: status %d: %s", status, body)
		}
	}
	return "", fmt.Errorf("create session: attempts exhausted")
}

// driveChaosUser runs one user's whole script and returns the session ID
// and its final history as the server reports it.
func driveChaosUser(baseURL string, u *model.Universe, userIdx int) (string, []schemaio.IterationDoc, error) {
	id, err := chaosCreate(baseURL, u, userIdx)
	if err != nil {
		return "", nil, err
	}

	var last *schemaio.SolutionDoc
	for k := 0; k < chaosIters; k++ {
		sol, ok, err := chaosSolve(baseURL+"/v1/sessions/"+id+"/solve", chaosScript(k, last))
		if err != nil {
			return id, nil, fmt.Errorf("user %d iteration %d: %w", userIdx, k, err)
		}
		if !ok {
			break // abandoned after retries; history stays a clean prefix
		}
		last = sol
	}

	resp, err := http.Get(baseURL + "/v1/sessions/" + id + "/history")
	if err != nil {
		return id, nil, err
	}
	defer resp.Body.Close()
	var hist struct {
		Iterations []schemaio.IterationDoc `json:"iterations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		return id, nil, err
	}
	return id, hist.Iterations, nil
}

// chaosHealth is the /healthz body as the reconciliation check reads it.
type chaosHealth struct {
	Status       string `json:"status"`
	Degraded     bool   `json:"degraded"`
	AuditDropped int64  `json:"auditLinesDropped"`
	WALErrors    int64  `json:"walAppendErrors"`
}

// chaosRun is one full run's observable outcome.
type chaosRun struct {
	sessions  []string                  // per user, the acknowledged session ID
	histories [][]schemaio.IterationDoc // per user
	metrics   *metricsDoc
	health    chaosHealth // /healthz as seen after drain, before shutdown
	audit     string
}

// runChaos starts a server (armed with inj when non-nil, durable when
// walDir is non-empty), drives the scripted users — concurrently for
// chaos pressure, sequentially for deterministic replay — then drains
// and returns every observable.
func runChaos(t *testing.T, u *model.Universe, inj *faultinject.Injector, workers int, concurrent bool, walDir string) chaosRun {
	t.Helper()
	var buf syncBuffer
	srv, err := Open(chaosConfig(inj, &buf, workers, walDir))
	if err != nil {
		t.Fatalf("opening chaos server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	sessions := make([]string, chaosUsers)
	histories := make([][]schemaio.IterationDoc, chaosUsers)
	errs := make([]error, chaosUsers)
	if concurrent {
		var wg sync.WaitGroup
		for i := 0; i < chaosUsers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sessions[i], histories[i], errs[i] = driveChaosUser(ts.URL, u, i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < chaosUsers; i++ {
			sessions[i], histories[i], errs[i] = driveChaosUser(ts.URL, u, i)
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("user %d: %v", i, err)
		}
	}

	// Degraded-mode reporting is part of the run's observable outcome,
	// and /healthz only answers while the server is up: fetch it after
	// the load drains but before shutdown.
	var health chaosHealth
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	return chaosRun{sessions: sessions, histories: histories, metrics: srv.metricsSnapshot(), health: health, audit: buf.String()}
}

// canonicalIterations renders a history with operational metadata
// removed: wall-clock timing and match-cache traffic are zeroed (a
// retried solve warms the session's cache, so cache counters — unlike
// everything else — legitimately differ from the fault-free reference).
func canonicalIterations(t *testing.T, docs []schemaio.IterationDoc) []byte {
	t.Helper()
	c := append([]schemaio.IterationDoc(nil), docs...)
	for i := range c {
		c[i].Solution.ElapsedNS = 0
		c[i].Solution.CacheHits = 0
		c[i].Solution.CacheMisses = 0
		c[i].Solution.CacheEvictions = 0
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkHistoryInvariants asserts invariants 1 and 2: each chaos history
// is a prefix of the reference and every surviving iteration is
// bit-identical to it.
func checkHistoryInvariants(t *testing.T, name string, plan faultinject.Plan, ref, got [][]schemaio.IterationDoc) {
	t.Helper()
	for i := range got {
		if len(got[i]) > len(ref[i]) {
			t.Errorf("user %d: chaos history has %d iterations, reference only %d\n%s",
				i, len(got[i]), len(ref[i]), replayBanner(name, plan))
			continue
		}
		want := canonicalIterations(t, ref[i][:len(got[i])])
		have := canonicalIterations(t, got[i])
		if !bytes.Equal(want, have) {
			t.Errorf("user %d: surviving history diverges from the fault-free reference\nreference %s\nsurvived  %s\n%s",
				i, want, have, replayBanner(name, plan))
		}
	}
}

// checkReconciliation asserts invariant 3 against the drained server's
// counters and audit log.
func checkReconciliation(t *testing.T, name string, plan faultinject.Plan, run chaosRun) {
	t.Helper()
	m := run.metrics
	terminal := m.Solves + m.SolveErrors + m.SolvesCancelled + m.SolvePanics + m.SolveTimeouts
	if m.SolvesAdmitted != terminal {
		t.Errorf("metrics do not reconcile: admitted %d != done %d + errors %d + cancelled %d + panics %d + timeouts %d\n%s",
			m.SolvesAdmitted, m.Solves, m.SolveErrors, m.SolvesCancelled, m.SolvePanics, m.SolveTimeouts,
			replayBanner(name, plan))
	}
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("drained server still reports queueDepth %d, inFlight %d\n%s",
			m.QueueDepth, m.InFlight, replayBanner(name, plan))
	}

	counts := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(run.audit), "\n") {
		if line == "" {
			continue
		}
		var e auditEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("audit line %q: %v", line, err)
		}
		counts[e.Action]++
	}
	enqueued := counts["solve.enqueue"]
	terminalLines := counts["solve.done"] + counts["solve.error"] + counts["solve.cancelled"] +
		counts["solve.panic"] + counts["solve.timeout"]
	if enqueued > m.SolvesAdmitted || terminalLines > m.SolvesAdmitted {
		t.Errorf("audit log records more solves than were admitted: enqueue %d, terminal %d, admitted %d\n%s",
			enqueued, terminalLines, m.SolvesAdmitted, replayBanner(name, plan))
	}
	deficit := (m.SolvesAdmitted - enqueued) + (m.SolvesAdmitted - terminalLines)
	if deficit > m.AuditDropped {
		t.Errorf("audit log is missing %d solve lines but only %d drops were counted\n%s",
			deficit, m.AuditDropped, replayBanner(name, plan))
	}

	// Degraded-mode reporting: /healthz must admit impairment exactly
	// when audit lines were dropped or durability commits were refused —
	// a silently lossy trail is the failure mode this pins down.
	refusals := int64(0)
	if m.WAL != nil {
		refusals = m.WAL.CommitRefusals
	}
	wantDegraded := m.AuditDropped > 0 || refusals > 0
	if run.health.Degraded != wantDegraded {
		t.Errorf("healthz reports degraded=%v with auditDropped=%d walCommitRefusals=%d\n%s",
			run.health.Degraded, m.AuditDropped, refusals, replayBanner(name, plan))
	}
	if run.health.AuditDropped != m.AuditDropped || run.health.WALErrors != refusals {
		t.Errorf("healthz counters (auditDropped=%d walErrors=%d) disagree with metrics (%d, %d)\n%s",
			run.health.AuditDropped, run.health.WALErrors, m.AuditDropped, refusals, replayBanner(name, plan))
	}
}

// chaosMetricsWant returns the exact injected-failure counts each plan
// must produce given the suite's load (chaosUsers×chaosIters solves plus
// their retries): it proves the plan actually fired, not just that the
// service survived.
func chaosMetricsWant(name string) map[string]int64 {
	switch name {
	case "worker-panic":
		return map[string]int64{"solvePanics": 2}
	case "worker-stall":
		return map[string]int64{"solveTimeouts": 1}
	case "queue-overflow":
		return map[string]int64{"queueRejections": 3}
	case "audit-write-error":
		return map[string]int64{"auditDropped": 5}
	case "cancel-midway":
		return map[string]int64{"solvesCancelled": 2}
	case "mixed":
		return map[string]int64{"solvePanics": 1, "queueRejections": 1}
	case "wal-write-error":
		return map[string]int64{"walCommitRefusals": 2}
	case "wal-fsync-stall":
		return map[string]int64{"walFsyncStalls": 2}
	case "recovery-truncated-tail":
		// Fires only at recovery time; TestChaosDurableRecovery asserts
		// its effect, the live run just proves the service shrugs it off.
		return nil
	default:
		return nil
	}
}

// chaosFiringsWant returns the exact firing counts of the plan points
// that leave no trace in the server's metrics: their results are
// bit-identical by design, so only the injector can show they fired.
func chaosFiringsWant(name string) map[faultinject.Point]int {
	if name == "mixed" {
		// Every edit-evaluated move reaches the point, so all 8
		// scheduled evictions fire within the first solve.
		return map[faultinject.Point]int{faultinject.SnapshotEvict: 8}
	}
	return nil
}

func metricByName(m *metricsDoc, name string) int64 {
	switch name {
	case "solvePanics":
		return m.SolvePanics
	case "solveTimeouts":
		return m.SolveTimeouts
	case "queueRejections":
		return m.QueueRejections
	case "auditDropped":
		return m.AuditDropped
	case "solvesCancelled":
		return m.SolvesCancelled
	case "walCommitRefusals":
		if m.WAL == nil {
			return -1
		}
		return m.WAL.CommitRefusals
	case "walFsyncStalls":
		if m.WAL == nil {
			return -1
		}
		return int64(m.WAL.FsyncStalls)
	default:
		return -1
	}
}

// TestChaosPlanFixtures pins the committed plan corpus: every fixture
// decodes and validates, and the ten required fault classes are all
// covered.
func TestChaosPlanFixtures(t *testing.T) {
	covered := map[faultinject.Point]bool{}
	for _, name := range chaosPlanNames(t) {
		plan := loadChaosPlan(t, name)
		for _, e := range plan.Entries {
			covered[e.Point] = true
		}
	}
	for _, p := range []faultinject.Point{
		faultinject.WorkerPanic,
		faultinject.WorkerStall,
		faultinject.QueueOverflow,
		faultinject.AuditWriteError,
		faultinject.SolveCancelMidway,
		faultinject.WALWriteError,
		faultinject.WALFsyncStall,
		faultinject.RecoveryTruncatedTail,
		faultinject.ChurnMidway,
		faultinject.ChurnConflict,
	} {
		if !covered[p] {
			t.Errorf("no committed chaos plan exercises %s", p)
		}
	}
}

// TestChaosSuite is the tentpole: N concurrent scripted users against an
// in-process server while each committed fault plan fires, holding the
// three chaos invariants.
func TestChaosSuite(t *testing.T) {
	u := testUniverse(t, 30)
	ref := runChaos(t, u, nil, 3, false, "")
	for i, h := range ref.histories {
		if len(h) != chaosIters {
			t.Fatalf("fault-free reference: user %d completed %d/%d iterations", i, len(h), chaosIters)
		}
	}

	for _, name := range chaosPlanNames(t) {
		t.Run(name, func(t *testing.T) {
			plan := loadChaosPlan(t, name)
			inj := faultinject.MustNew(plan)
			run := runChaos(t, u, inj, 3, true, chaosWALDir(t, plan))

			checkHistoryInvariants(t, name, plan, ref.histories, run.histories)
			checkReconciliation(t, name, plan, run)

			// The plans are sized so retries always succeed within the
			// attempt budget: every script must run to completion.
			for i, h := range run.histories {
				if len(h) != chaosIters {
					t.Errorf("user %d completed %d/%d iterations\n%s", i, len(h), chaosIters, replayBanner(name, plan))
				}
			}
			for metric, want := range chaosMetricsWant(name) {
				if got := metricByName(run.metrics, metric); got != want {
					t.Errorf("%s = %d, want exactly %d (plan did not fire as scheduled)\n%s",
						metric, got, want, replayBanner(name, plan))
				}
			}
			for point, want := range chaosFiringsWant(name) {
				if got := inj.FiredCount(point); got != want {
					t.Errorf("%s fired %d times, want exactly %d\n%s", point, got, want, replayBanner(name, plan))
				}
			}
		})
	}
}

// TestChaosReplayDeterminism is the replayability guarantee: the same
// seed + plan driven by the deterministic sequential driver produces
// byte-identical surviving histories across two independent server
// instances.
func TestChaosReplayDeterminism(t *testing.T) {
	u := testUniverse(t, 30)
	for _, name := range chaosPlanNames(t) {
		t.Run(name, func(t *testing.T) {
			plan := loadChaosPlan(t, name)
			first := runChaos(t, u, faultinject.MustNew(plan), 1, false, chaosWALDir(t, plan))
			second := runChaos(t, u, faultinject.MustNew(plan), 1, false, chaosWALDir(t, plan))
			for i := range first.histories {
				a := canonicalIterations(t, first.histories[i])
				b := canonicalIterations(t, second.histories[i])
				if !bytes.Equal(a, b) {
					t.Errorf("user %d: replay diverged\nfirst  %s\nsecond %s\n%s",
						i, a, b, replayBanner(name, plan))
				}
			}
		})
	}
}

// TestChaosDurableRecovery closes the durability loop for the WAL fault
// plans: after a chaos run against a durable server, a second Open on
// the same log — with the same plan re-armed — recovers every
// acknowledged history bit-identically (telemetry included, since solve
// records carry the observed values), less only the records an injected
// tail truncation deliberately dropped.
func TestChaosDurableRecovery(t *testing.T) {
	u := testUniverse(t, 30)
	for _, name := range chaosPlanNames(t) {
		plan := loadChaosPlan(t, name)
		if !planTouchesWAL(plan) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			run := runChaos(t, u, faultinject.MustNew(plan), 3, true, dir)

			srv, err := Open(Config{Workers: 1, QueueDepth: 4, WALDir: dir, WALFsync: true,
				FaultInjector: faultinject.MustNew(plan)})
			if err != nil {
				t.Fatalf("reopening durable server: %v\n%s", err, replayBanner(name, plan))
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
				ts.Close()
			}()

			// recovery.truncated-tail entries may drop that many records
			// off the log's tail; every other plan must lose nothing.
			allowedDrop := 0
			for _, e := range plan.Entries {
				if e.Point == faultinject.RecoveryTruncatedTail {
					allowedDrop += int(e.Arg)
				}
			}
			if got := srv.recovered.DroppedRecords; got > allowedDrop {
				t.Errorf("recovery dropped %d records, plan allows at most %d\n%s",
					got, allowedDrop, replayBanner(name, plan))
			}

			liveTotal, recoveredTotal := 0, 0
			for i, id := range run.sessions {
				want := run.histories[i]
				liveTotal += len(want)
				resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/history")
				if err != nil {
					t.Fatal(err)
				}
				var hist struct {
					Iterations []schemaio.IterationDoc `json:"iterations"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
					resp.Body.Close()
					t.Fatalf("user %d history after recovery: %v", i, err)
				}
				resp.Body.Close()
				got := hist.Iterations
				recoveredTotal += len(got)
				if len(got) > len(want) {
					t.Errorf("user %d: recovery has %d iterations, live run acknowledged %d\n%s",
						i, len(got), len(want), replayBanner(name, plan))
					continue
				}
				a, err := json.Marshal(want[:len(got)])
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("user %d: recovered history diverges from the live run\nlive      %s\nrecovered %s\n%s",
						i, a, b, replayBanner(name, plan))
				}
			}
			if liveTotal-recoveredTotal != srv.recovered.DroppedRecords {
				t.Errorf("recovery is missing %d acknowledged iterations but reports %d dropped records\n%s",
					liveTotal-recoveredTotal, srv.recovered.DroppedRecords, replayBanner(name, plan))
			}
		})
	}
}

// TestJanitorForcedSweep covers the janitor.evict point: a forced sweep
// evicts idle sessions immediately, but never a session with queued or
// running work.
func TestJanitorForcedSweep(t *testing.T) {
	u := testUniverse(t, 30)
	inj := faultinject.MustNew(faultinject.Plan{
		Seed: 7,
		Entries: []faultinject.Entry{
			{Point: faultinject.JanitorEvict, Trigger: 1, Action: "evict", Repeat: 1 << 20},
		},
	})
	// TTL 10s → sweeps every 2.5s; the forced sweep evicts idle sessions
	// seconds before their TTL could.
	srv, ts := newTestServer(t, Config{SessionTTL: 10 * time.Second, FaultInjector: inj})

	// A busy session survives every forced sweep while its solve runs.
	doc := testProblemDoc()
	doc.MaxEvals = 200000
	busy := createSession(t, ts.URL, u, doc)
	busyDone := make(chan struct{})
	go func() {
		defer close(busyDone)
		status, body, err := chaosPost(ts.URL+"/v1/sessions/"+busy+"/solve", solveRequest{})
		if err != nil || status != http.StatusOK {
			t.Errorf("busy solve: status %d err %v: %s", status, err, body)
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.metrics.inFlight.Load() == 1 })

	// An idle session is swept long before its one-hour TTL.
	idle := createSession(t, ts.URL, u, testProblemDoc())
	waitFor(t, 20*time.Second, func() bool { return srv.metrics.sessionsEvicted.Load() >= 1 })
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+idle, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("idle session survived a forced sweep: %d", resp.StatusCode)
	}
	if srv.metrics.inFlight.Load() == 1 {
		s, ok := srv.lookupSession(busy)
		if !ok || s == nil {
			t.Error("busy session was evicted mid-solve")
		}
	}
	<-busyDone
}

// TestSSESlowClientDrop covers the sse.slow-client point at the hub
// level: the scheduled frame is dropped, later frames still arrive, and
// nothing blocks.
func TestSSESlowClientDrop(t *testing.T) {
	inj := faultinject.MustNew(faultinject.Plan{
		Seed: 8,
		Entries: []faultinject.Entry{
			{Point: faultinject.SSESlowClient, Trigger: 1, Action: "drop"},
		},
	})
	h := newHub(inj)
	ch, ok := h.subscribe()
	if !ok {
		t.Fatal("subscribe on fresh hub failed")
	}
	h.publish("queued", map[string]int{"position": 1}) // dropped by the fault
	h.publish("start", map[string]int{"iteration": 0})
	select {
	case frame := <-ch:
		if !bytes.Contains(frame, []byte("event: start")) {
			t.Errorf("first delivered frame is %q; the queued frame should have been dropped", frame)
		}
	default:
		t.Fatal("no frame delivered after the dropped one")
	}
	if n := inj.FiredCount(faultinject.SSESlowClient); n != 1 {
		t.Errorf("sse.slow-client fired %d times; want 1", n)
	}
	h.close()
}
