// Tests for ube-load: every mode at its CI size, the checks each mode
// makes shown failing on tampered input, and flag validation.
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ube/internal/model"
	"ube/internal/schemaio"
)

// runMainEnv makes a re-exec'd test binary run main instead of the
// tests. TestMain sets it for the whole test process, so the server
// children spawned by shard and durable runs are this binary acting as
// ube-load -child.
const runMainEnv = "UBE_LOAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Setenv(runMainEnv, "1")
	os.Exit(m.Run())
}

// runMode parses args and runs the selected mode in process, returning
// what it printed to stdout.
func runMode(t *testing.T, args ...string) (string, error) {
	t.Helper()
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	var out bytes.Buffer
	err = run(o, &out)
	return out.String(), err
}

// readBench decodes a written BENCH document and requires its
// top-level keys to be exactly want.
func readBench(t *testing.T, path string, want ...string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("%s: missing key %q", path, k)
		}
	}
	if len(doc) != len(want) {
		t.Errorf("%s: %d keys, want %d: %v", path, len(doc), len(want), want)
	}
	return doc
}

var fleetKeys = []string{
	"users", "itersPerUser", "sources", "totalSolves", "wallSeconds", "solvesPerSec",
	"latencyMsP50", "latencyMsP95", "latencyMsP99", "latencyMsMax",
	"rejections429", "transient5xxRetries", "deterministic",
}

func TestFlatMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.json")
	if _, err := runMode(t, "-users", "10", "-iters", "3", "-n", "30", "-o", path); err != nil {
		t.Fatal(err)
	}
	doc := readBench(t, path, append(fleetKeys, "retriesSlept", "serverMetrics")...)
	if doc["deterministic"] != true || doc["totalSolves"] != 30.0 {
		t.Errorf("deterministic=%v totalSolves=%v, want true and 30", doc["deterministic"], doc["totalSolves"])
	}
}

func TestChaosMode(t *testing.T) {
	plan := filepath.Join("..", "..", "internal", "server", "testdata", "chaosplans", "mixed.json")
	out, err := runMode(t, "-chaos", plan, "-users", "4", "-iters", "3", "-n", "30", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "chaos: OK — all invariants hold") {
		t.Errorf("verdict %q", out)
	}
}

func TestChurnMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.json")
	if _, err := runMode(t, "-churn", "-users", "8", "-iters", "3", "-n", "30", "-evals", "200", "-o", path); err != nil {
		t.Fatal(err)
	}
	doc := readBench(t, path, "users", "steps", "solvesPerUser", "sourcesStart", "sourcesEnd",
		"totalSolves", "totalChurns", "wallSeconds", "solveMsP50", "solveMsP95", "solveMsMax",
		"churnMsP50", "churnMsP95", "churnMsMax", "rejections429", "deterministic",
		"churnMetricsReconcile", "serverMetrics")
	if doc["deterministic"] != true || doc["churnMetricsReconcile"] != true || doc["totalChurns"] != 24.0 {
		t.Errorf("deterministic=%v churnMetricsReconcile=%v totalChurns=%v, want true, true, 24",
			doc["deterministic"], doc["churnMetricsReconcile"], doc["totalChurns"])
	}
}

func TestShardMode(t *testing.T) {
	for _, wire := range []string{"json", "binary"} {
		t.Run(wire, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard.json")
			args := []string{"-shards", "2", "-users", "100", "-iters", "3", "-n", "30",
				"-queue", "512", "-o", path}
			if wire == "binary" {
				args = append(args, "-binary")
			}
			if _, err := runMode(t, args...); err != nil {
				t.Fatal(err)
			}
			doc := readBench(t, path, append(fleetKeys, "shards", "binaryWire", "routerMetrics")...)
			if doc["deterministic"] != true || doc["binaryWire"] != (wire == "binary") {
				t.Errorf("deterministic=%v binaryWire=%v", doc["deterministic"], doc["binaryWire"])
			}
		})
	}
}

func TestDurableMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "durable.json")
	if _, err := runMode(t, "-kill-after", "2", "-iters", "4", "-n", "30", "-wal-dir", filepath.Join(dir, "wal"), "-o", path); err != nil {
		t.Fatal(err)
	}
	doc := readBench(t, path, "sources", "iters", "killAfter", "ackedSolvesAtKill", "recoveredIterations",
		"recoveryMs", "recoveredBitIdentical", "finalMatchesReference", "walRecovery")
	if doc["recoveredBitIdentical"] != true || doc["finalMatchesReference"] != true || doc["ackedSolvesAtKill"] != 2.0 {
		t.Errorf("recoveredBitIdentical=%v finalMatchesReference=%v ackedSolvesAtKill=%v",
			doc["recoveredBitIdentical"], doc["finalMatchesReference"], doc["ackedSolvesAtKill"])
	}
	if n := doc["recoveredIterations"]; n != 2.0 && n != 3.0 {
		t.Errorf("recoveredIterations=%v, want 2 or 3", n)
	}
}

// referenceRun is one real three-iteration history, the raw material
// the negative tests tamper with.
func referenceRun(t *testing.T) []schemaio.IterationDoc {
	t.Helper()
	o, err := parseFlags([]string{"-iters", "3", "-n", "30"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f, err := catalogFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(o, f)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// tampered returns a copy of iters whose iteration k went through edit.
func tampered(iters []schemaio.IterationDoc, k int, edit func(*schemaio.SolutionDoc)) []schemaio.IterationDoc {
	c := append([]schemaio.IterationDoc(nil), iters...)
	edit(&c[k].Solution)
	return c
}

func TestCheckFleetCatchesDivergence(t *testing.T) {
	ref := referenceRun(t)
	quality := tampered(ref, 1, func(s *schemaio.SolutionDoc) { s.Quality = math.Nextafter(s.Quality, 2) })
	elapsed := tampered(ref, 1, func(s *schemaio.SolutionDoc) { s.ElapsedNS++ })
	cache := tampered(ref, 1, func(s *schemaio.SolutionDoc) { s.CacheHits++ })
	for _, c := range []struct {
		name  string
		other []schemaio.IterationDoc
		level canon
		want  bool
	}{
		{"identical", ref, canonTiming, true},
		{"quality", quality, canonTiming, false},
		{"quality ignoring cache", quality, canonOperational, false},
		{"elapsed", elapsed, canonTiming, true},
		{"cache", cache, canonTiming, false},
		{"cache ignoring cache", cache, canonOperational, true},
	} {
		users := []*user{
			{steps: 3, digest: hash(canonical(ref, c.level))},
			{steps: 3, digest: hash(canonical(c.other, c.level))},
		}
		if got, err := checkFleet(users, 3); err != nil || got != c.want {
			t.Errorf("%s: checkFleet = %v, %v; want %v", c.name, got, err, c.want)
		}
	}

	d := hash(canonical(ref, canonTiming))
	for _, bad := range []*user{
		{steps: 3, digest: d, abandoned: true},
		{steps: 2, digest: d},
		{steps: 3, digest: d, err: errAbandoned},
	} {
		if _, err := checkFleet([]*user{{steps: 3, digest: d}, bad}, 3); err == nil {
			t.Errorf("checkFleet passed with user %+v", *bad)
		}
	}
}

func TestChaosViolations(t *testing.T) {
	ref := referenceRun(t)
	prefixes := make([]string, len(ref))
	for k := range ref {
		prefixes[k] = hash(canonical(ref[:k+1], canonOperational))
	}
	survivor := func(iters []schemaio.IterationDoc, abandoned bool) *user {
		return &user{steps: len(iters), digest: hash(canonical(iters, canonOperational)), abandoned: abandoned}
	}
	clean := chaosMetricsDoc{SolvesAdmitted: 2, Solves: 1, SolvePanics: 1}
	audit := strings.Repeat(`{"action":"solve.enqueue"}`+"\n", 2) + `{"action":"solve.done"}` + "\n" + `{"action":"solve.panic"}` + "\n"
	warm := tampered(ref, 0, func(s *schemaio.SolutionDoc) { s.CacheMisses += 7; s.ElapsedNS = 1 })

	for _, c := range []struct {
		name    string
		users   []*user
		metrics chaosMetricsDoc
		audit   string
		want    string // "" for no violation
	}{
		{"clean", []*user{survivor(ref, false), survivor(ref[:2], true), survivor(nil, true)}, clean, audit, ""},
		{"warm cache survivor", []*user{survivor(warm, false)}, clean, audit, ""},
		{"diverged survivor", []*user{survivor(tampered(ref[:2], 1, func(s *schemaio.SolutionDoc) { s.Evals++ }), true)}, clean, audit, "diverges"},
		{"short without abandoning", []*user{survivor(ref[:2], false)}, clean, audit, "without abandoning"},
		{"too long", []*user{survivor(append(ref, ref[0]), false)}, clean, audit, "script only has"},
		{"unreconciled counters", []*user{survivor(ref, false)}, chaosMetricsDoc{SolvesAdmitted: 3, Solves: 1, SolvePanics: 1}, audit, "do not reconcile"},
		{"undrained queue", []*user{survivor(ref, false)}, chaosMetricsDoc{SolvesAdmitted: 2, Solves: 1, SolvePanics: 1, QueueDepth: 1}, audit, "queueDepth"},
		{"missing audit lines", []*user{survivor(ref, false)}, clean, `{"action":"solve.enqueue"}` + "\n", "audit log is missing"},
		{"dropped audit lines", []*user{survivor(ref, false)}, chaosMetricsDoc{SolvesAdmitted: 2, Solves: 1, SolvePanics: 1, AuditDropped: 3}, `{"action":"solve.enqueue"}` + "\n", ""},
	} {
		got := strings.Join(chaosViolations(prefixes, c.users, &c.metrics, c.audit), "; ")
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: violations %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCheckDurable(t *testing.T) {
	ref := referenceRun(t)
	data, err := json.Marshal(ref[1])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"evals":`)) + len(`"evals":`)
	data[i] = '1' + (data[i]-'0')%9 // one digit of one byte changes
	var flipped schemaio.IterationDoc
	if err := json.Unmarshal(data, &flipped); err != nil {
		t.Fatal(err)
	}
	edited := func(edit func(*schemaio.SolutionDoc)) []schemaio.IterationDoc { return tampered(ref, 2, edit) }
	for _, c := range []struct {
		name                    string
		acked, recovered, final []schemaio.IterationDoc
		ok                      bool
	}{
		{"exact", ref[:2], ref[:2], ref, true},
		{"in-flight solve committed", ref[:2], ref, ref, true},
		{"acknowledged iteration lost", ref[:2], ref[:1], ref, false},
		{"two extra iterations", ref[:1], ref, ref, false},
		{"one byte changed", ref[:2], []schemaio.IterationDoc{ref[0], flipped}, ref, false},
		{"recovered timing changed", ref[:2], tampered(ref[:2], 0, func(s *schemaio.SolutionDoc) { s.ElapsedNS++ }), ref, false},
		{"final timing changed", ref[:2], ref[:2], edited(func(s *schemaio.SolutionDoc) { s.ElapsedNS++ }), true},
		{"final cache changed", ref[:2], ref[:2], edited(func(s *schemaio.SolutionDoc) { s.CacheMisses++ }), false},
		{"final diverged", ref[:2], ref[:2], edited(func(s *schemaio.SolutionDoc) { s.Evals++ }), false},
		{"final short", ref[:2], ref[:2], ref[:2], false},
	} {
		if err := checkDurable(c.acked, c.recovered, c.final, ref); (err == nil) != c.ok {
			t.Errorf("%s: checkDurable = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// fakeUser is a user of a canned session API: /solve answers the given
// statuses in order and 200 after them, and PATCH acknowledges ackBatch.
func fakeUser(t *testing.T, statuses []int, ackBatch int) *user {
	t.Helper()
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"id":"s"}`)
	})
	mux.HandleFunc("POST /v1/sessions/s/solve", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if len(statuses) > 0 {
			w.WriteHeader(statuses[0])
			statuses = statuses[1:]
			return
		}
		io.WriteString(w, `{"solution":{"sources":[3]}}`)
	})
	mux.HandleFunc("PATCH /v1/sessions/s/universe", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(churnAck{Batch: ackBatch})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	u := (&fleet{cl: srv.Client(), create: json.RawMessage(`{}`)}).newUser(1)
	if err := u.create(srv.URL); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestRetryLoopCountsEverySleep(t *testing.T) {
	u := fakeUser(t, []int{http.StatusServiceUnavailable, http.StatusTooManyRequests}, 1)
	if err := u.edits(0, 1); err != nil {
		t.Fatal(err)
	}
	if u.transients != 1 || u.rejections != 1 || u.slept != 2 || len(u.solveMs) != 1 || len(u.last) != 1 {
		t.Errorf("transients=%d rejections=%d slept=%d solves=%d last=%v, want 1, 1, 2, 1, [3]",
			u.transients, u.rejections, u.slept, len(u.solveMs), u.last)
	}

	u = fakeUser(t, []int{http.StatusConflict}, 1)
	if err := u.edits(0, 1); err == nil || !strings.Contains(err.Error(), "HTTP 409") || u.slept != 0 {
		t.Errorf("non-transient status: err=%v slept=%d, want an HTTP 409 error and no sleep", err, u.slept)
	}
}

func TestChurnScriptChecksBatchNumbers(t *testing.T) {
	batches := [][]model.Mutation{{}, {}}
	if acks, err := churnScript(fakeUser(t, nil, 1), batches[:1]); err != nil || len(acks) != 1 {
		t.Fatalf("churnScript = %v, %v", acks, err)
	}
	if _, err := churnScript(fakeUser(t, nil, 1), batches); err == nil || !strings.Contains(err.Error(), "acknowledged as batch 1") {
		t.Errorf("batch 1 acknowledged as 1: err=%v", err)
	}
}

func TestCheckChurnComparesAcks(t *testing.T) {
	a, b := hash([]churnAck{{Batch: 1, Sources: 30}}), hash([]churnAck{{Batch: 1, Sources: 31}})
	for _, c := range []struct {
		acks []string
		want bool
	}{{[]string{a, a}, true}, {[]string{a, b}, false}} {
		users := []*user{{steps: 2, digest: "h"}, {steps: 2, digest: "h"}}
		if got, err := checkChurn(users, c.acks, 2); err != nil || got != c.want {
			t.Errorf("acks %q: checkChurn = %v, %v; want %v", c.acks, got, err, c.want)
		}
	}
}

func TestChurnMetricsReconcile(t *testing.T) {
	for _, c := range []struct {
		name string
		m    churnMetrics
		ok   bool
	}{
		{"all committed", churnMetrics{ChurnsAdmitted: 24, Churns: 24}, true},
		{"one short", churnMetrics{ChurnsAdmitted: 23, Churns: 23}, false},
		{"admitted not committed", churnMetrics{ChurnsAdmitted: 25, Churns: 24}, false},
		{"errored", churnMetrics{ChurnsAdmitted: 24, Churns: 24, ChurnErrors: 1}, false},
		{"conflicted", churnMetrics{ChurnsAdmitted: 24, Churns: 24, ChurnConflicts: 1}, false},
		{"cancelled", churnMetrics{ChurnsAdmitted: 24, Churns: 24, ChurnsCancelled: 1}, false},
	} {
		if got := c.m.reconciles(24); got != c.ok {
			t.Errorf("%s: reconciles = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // error substring, or the default -o when valid
	}{
		{nil, "BENCH_serve.json"},
		{[]string{"-addr", "http://localhost:8080"}, "BENCH_serve.json"},
		{[]string{"-churn"}, "BENCH_churn_serve.json"},
		{[]string{"-shards", "2"}, "BENCH_shard.json"},
		{[]string{"-kill-after", "2", "-wal-dir", "w"}, "BENCH_durable.json"},
		{[]string{"-chaos", "plan.json"}, ""},
		{[]string{"-users", "0"}, "-users 0"},
		{[]string{"-churn", "-users", "0"}, "-users 0"},
		{[]string{"-users", "-1"}, "-users -1"},
		{[]string{"-iters", "0"}, "-iters 0"},
		{[]string{"-n", "0"}, "-n 0"},
		{[]string{"-evals", "0"}, "-evals 0"},
		{[]string{"-shards", "-1"}, "-shards -1"},
		{[]string{"-kill-after", "-1"}, "-kill-after -1"},
		{[]string{"-churn", "-shards", "2"}, "at most one"},
		{[]string{"-chaos", "plan.json", "-churn"}, "at most one"},
		{[]string{"-kill-after", "1", "-shards", "2"}, "at most one"},
		{[]string{"-churn", "-addr", "http://localhost:8080"}, "drop -addr"},
		{[]string{"-shards", "2", "-addr", "http://localhost:8080"}, "drop -addr"},
		{[]string{"-wal-dir", "w"}, "-wal-dir"},
		{[]string{"-kill-after", "4", "-iters", "4"}, "must be below -iters"},
		{[]string{"-bogus"}, "not defined"},
	} {
		var errOut bytes.Buffer
		o, err := parseFlags(c.args, &errOut)
		switch {
		case err == nil && o.out != c.want:
			t.Errorf("%q: -o %q, want %q", c.args, o.out, c.want)
		case err != nil && (!strings.Contains(err.Error(), c.want) || !strings.Contains(errOut.String(), "Usage of ube-load")):
			t.Errorf("%q: error %v with output %q, want %q and the usage message", c.args, err, errOut.String(), c.want)
		}
	}
}

// TestBadFlagsExitTwo runs the command itself: invalid flags exit 2
// with a usage message rather than panicking.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-churn", "-users", "0"}, {"-users", "-1"}, {"-churn", "-shards", "2"}} {
		cmd := exec.Command(os.Args[0], args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%q: %v, want exit status 2", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of ube-load") || strings.Contains(stderr.String(), "panic") {
			t.Errorf("%q: stderr %q, want the usage message", args, stderr.String())
		}
	}
}
