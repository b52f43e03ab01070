package main

// The scripted-user fleet every mode runs. A user plays the paper's
// feedback loop: solve, inspect, pin or tighten or reweight, solve again.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ube/internal/engine"
	"ube/internal/faultinject"
	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/server"
	"ube/internal/synth"
)

// startServer opens the session server every mode and the child run,
// configured from the flags, and serves it on loopback. inj and audit
// arm it for chaos mode and are nil otherwise. Callers drain it before
// reading its final /metrics, then stop.
func startServer(o *options, inj *faultinject.Injector, audit io.Writer) (*server.Server, string, func(), error) {
	cfg := server.Config{
		Workers:     o.workers,
		QueueDepth:  o.queue,
		MaxSessions: o.users + 8,
		WALDir:      o.walDir,
	}
	if inj != nil {
		cfg.AuditWriter = audit
		cfg.FaultInjector = inj
		cfg.SolveTimeout = o.solveTimeout
		cfg.RetryAfterSeconds = 1
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	base, stop, err := serve(srv.Handler())
	if err != nil {
		return nil, "", nil, err
	}
	return srv, base, stop, nil
}

// serve serves h on a fresh loopback port. It returns the base URL and
// a stop function that closes the listener and its connections.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// drain waits out every admitted solve and stops the server's workers.
func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Shutdown(ctx)
}

// addrPrefix is the line a child prints once it is listening (recovery
// already done: Open replays the WAL before the listener binds).
const addrPrefix = "ADDR "

// runChild is the -child entry: a server configured from the flags on a
// loopback port, announced on stdout, served until the parent kills the
// process.
func runChild(o *options) error {
	_, base, _, err := startServer(o, nil, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", addrPrefix, base)
	select {}
}

// child is one spawned server process.
type child struct {
	cmd  *exec.Cmd
	base string // announced base URL
}

// spawnChild re-executes this binary with -child, passing on the flags
// startServer reads, so the server lives in its own process: its own
// heap and GC, and a SIGKILL means what it means in production. It
// returns once the child has announced its address.
func spawnChild(o *options) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child",
		"-users", strconv.Itoa(o.users),
		"-workers", strconv.Itoa(o.workers),
		"-queue", strconv.Itoa(o.queue),
		"-wal-dir", o.walDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, addrPrefix) {
			return &child{cmd: cmd, base: strings.TrimPrefix(line, addrPrefix)}, nil
		}
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil, errors.New("server child exited before announcing its address")
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// historyDoc is the /history response.
type historyDoc struct {
	Iterations []schemaio.IterationDoc `json:"iterations"`
}

// do sends one request with a JSON body (nil for none) and the given
// Accept header. A 200 or 201 reply is decoded into out (when non-nil):
// as a binary frame when the server answered with one, as JSON
// otherwise. It returns the status and the server's Retry-After
// guidance, zero when the response carried none.
func do(cl *http.Client, method, url string, body any, accept string, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil || out == nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated) {
		return resp.StatusCode, retryAfter, err
	}
	if resp.Header.Get("Content-Type") != schemaio.BinaryContentType {
		return resp.StatusCode, retryAfter, json.Unmarshal(data, out)
	}
	switch out := out.(type) {
	case *schemaio.SolveResultDoc:
		var sr *schemaio.SolveResultDoc
		if sr, err = schemaio.DecodeBinarySolveResult(data); err == nil {
			*out = *sr
		}
	case *historyDoc:
		out.Iterations, err = schemaio.DecodeBinaryHistory(data)
	default:
		err = fmt.Errorf("no binary decoding for %T", out)
	}
	return resp.StatusCode, retryAfter, err
}

// getJSON fetches a JSON document that must answer 200.
func getJSON(cl *http.Client, url string, out any) error {
	status, _, err := do(cl, http.MethodGet, url, nil, "", out)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, status)
	}
	return err
}

// maxSolveAttempts bounds the retries one request absorbs before the
// user abandons the rest of its script. Against a fault-free server the
// budget is never exhausted; under chaos, exhaustion leaves a clean
// history prefix.
const maxSolveAttempts = 12

// errAbandoned reports a request that exhausted maxSolveAttempts.
var errAbandoned = fmt.Errorf("abandoned after %d attempts", maxSolveAttempts)

// backoff is capped exponential backoff with seeded jitter. The
// server's Retry-After guidance floors every delay; consecutive
// failures double from there up to the cap, plus jitter drawn from the
// user's own RNG so a run with the same -seed sleeps the same schedule.
type backoff struct {
	rng *rand.Rand
	cur time.Duration
}

const (
	backoffFloor = 100 * time.Millisecond
	backoffCap   = 10 * time.Second
)

// next returns the delay before the following attempt; retryAfter is
// the server's guidance (zero when the response carried none).
func (b *backoff) next(retryAfter time.Duration) time.Duration {
	base := retryAfter
	if base <= 0 {
		base = backoffFloor
	}
	if b.cur < base {
		b.cur = base
	} else {
		b.cur *= 2
	}
	if b.cur > backoffCap {
		b.cur = backoffCap
	}
	jitter := time.Duration(b.rng.Int63n(int64(b.cur/4) + 1))
	return b.cur + jitter
}

// fleet is what every user of a run shares: the pooled HTTP client, the
// wire and the create-session request.
type fleet struct {
	cl      *http.Client
	accept  string // schemaio.BinaryContentType with -binary
	create  json.RawMessage
	sources int
	seed    int64
}

// newFleet encodes the create-session request once: the catalog and
// the default problem with -evals as its evaluation budget.
func newFleet(o *options, u *model.Universe) (*fleet, error) {
	prob := engine.DefaultProblem()
	prob.MaxSources = min(prob.MaxSources, u.N())
	prob.MaxEvals = o.evals
	pd, err := schemaio.EncodeProblem(&prob)
	if err != nil {
		return nil, err
	}
	create, err := json.Marshal(map[string]any{"universe": u, "problem": pd})
	if err != nil {
		return nil, err
	}
	f := &fleet{
		// One pooled client for the whole fleet: 10k users share a
		// bounded connection pool instead of opening 10k sockets.
		cl: &http.Client{
			Timeout: 5 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				MaxConnsPerHost:     256,
			},
		},
		create:  create,
		sources: u.N(),
		seed:    o.seed,
	}
	if o.binary {
		f.accept = schemaio.BinaryContentType
	}
	return f, nil
}

// catalogFleet generates the synthetic catalog of -n sources and the
// fleet over it.
func catalogFleet(o *options) (*fleet, error) {
	u, _, err := synth.Generate(synth.QuickConfig(o.n))
	if err != nil {
		return nil, fmt.Errorf("generating catalog: %w", err)
	}
	return newFleet(o, u)
}

// user is one scripted user: its session, retry state and measurements.
type user struct {
	f    *fleet
	bo   backoff
	url  string // session URL
	last []int  // sources of the latest solution, read by scriptEdit

	solveMs, patchMs []float64 // latencies of successful requests
	rejections       int       // 429s absorbed by backoff
	transients       int       // 500/503/504s absorbed by backoff
	slept            int       // backoff sleeps before a retry
	abandoned        bool      // a request ran out of attempts

	steps  int    // history length at the end of the run
	digest string // canonical history digest at the end of the run
	err    error
}

func (f *fleet) newUser(seed int64) *user {
	return &user{f: f, bo: backoff{rng: rand.New(rand.NewSource(seed))}}
}

// run plays n users concurrently against base, user i drawing its
// backoff jitter from seed+i, and returns them with the wall-clock time
// the fleet took. Each user creates a session, runs script on it and
// digests its history at level.
func (f *fleet) run(base string, n int, level canon, script func(i int, u *user) error) ([]*user, time.Duration) {
	users := make([]*user, n)
	var wg sync.WaitGroup
	//ube:nondeterministic-ok benchmark wall-clock measurement
	start := time.Now()
	for i := range users {
		users[i] = f.newUser(f.seed + int64(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := users[i]
			u.err = u.play(base, level, func(u *user) error { return script(i, u) })
		}(i)
	}
	wg.Wait()
	//ube:nondeterministic-ok benchmark wall-clock measurement
	return users, time.Since(start)
}

// play creates the user's session on base, runs script and digests the
// resulting history at level. A script that runs out of retries leaves
// the user abandoned with whatever clean prefix it completed.
func (u *user) play(base string, level canon, script func(*user) error) error {
	if err := u.create(base); err != nil {
		return err
	}
	if err := script(u); errors.Is(err, errAbandoned) {
		u.abandoned = true
	} else if err != nil {
		return err
	}
	iters, err := u.history()
	if err != nil {
		return err
	}
	u.steps, u.digest = len(iters), hash(canonical(iters, level))
	return nil
}

func (u *user) create(base string) error {
	var created struct {
		ID string `json:"id"`
	}
	status, _, err := do(u.f.cl, http.MethodPost, base+"/v1/sessions", u.f.create, "", &created)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create session: HTTP %d", status)
	}
	u.url = base + "/v1/sessions/" + created.ID
	return nil
}

// call sends one request through the retry loop. A transient failure
// is retried with the identical request — the server's full-undo
// contract makes the retry equivalent — under backoff floored by
// Retry-After, up to maxSolveAttempts attempts: queue rejection (429),
// recovered panic (500), injected mid-solve cancel (503) or deadline
// expiry (504). It returns the successful attempt's latency in ms.
func (u *user) call(method, url string, body, out any) (float64, error) {
	for attempt := 1; ; attempt++ {
		//ube:nondeterministic-ok per-request latency measurement
		t0 := time.Now()
		status, retryAfter, err := do(u.f.cl, method, url, body, u.f.accept, out)
		//ube:nondeterministic-ok per-request latency measurement
		dt := time.Since(t0)
		if err != nil {
			return 0, err
		}
		switch status {
		case http.StatusOK:
			u.bo.cur = 0
			return float64(dt.Nanoseconds()) / 1e6, nil
		case http.StatusTooManyRequests:
			u.rejections++
		case http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			u.transients++
		default:
			return 0, fmt.Errorf("HTTP %d", status)
		}
		if attempt >= maxSolveAttempts {
			return 0, errAbandoned
		}
		u.slept++
		time.Sleep(u.bo.next(retryAfter))
	}
}

// solve runs one solve with the given problem edit.
func (u *user) solve(edit map[string]any) error {
	var res schemaio.SolveResultDoc
	ms, err := u.call(http.MethodPost, u.url+"/solve", edit, &res)
	if err != nil {
		return err
	}
	u.solveMs = append(u.solveMs, ms)
	u.last = res.Solution.Sources
	return nil
}

// edits runs steps [from, to) of the shared edit script.
func (u *user) edits(from, to int) error {
	for k := from; k < to; k++ {
		if err := u.solve(scriptEdit(k, u.last)); err != nil {
			return fmt.Errorf("solve %d: %w", k, err)
		}
	}
	return nil
}

// editScript is the script of iters edit steps, as a fleet script.
func editScript(iters int) func(int, *user) error {
	return func(_ int, u *user) error { return u.edits(0, iters) }
}

// scriptEdit is iteration k's problem edit in the shared user script —
// solve, pin the best source, tighten θ, bias a weight — derived only
// from the iteration index and the previous solution, so every run of
// the script (load users, chaos survivors, durable-mode resumes) edits
// identically.
func scriptEdit(k int, lastSources []int) map[string]any {
	edit := map[string]any{}
	switch {
	case k == 0: // cold solve, no edits
	case k%3 == 1 && len(lastSources) > 0: // pin the first chosen source
		edit["pinSources"] = []int{lastSources[0]}
	case k%3 == 2: // tighten the matching threshold
		edit["theta"] = 0.75
	default: // bias cardinality, rescaling the rest
		edit["setWeights"] = map[string]float64{"card": 0.5}
	}
	return edit
}

// history fetches the session's history over the fleet's wire.
func (u *user) history() ([]schemaio.IterationDoc, error) {
	var h historyDoc
	status, _, err := do(u.f.cl, http.MethodGet, u.url+"/history", nil, u.f.accept, &h)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("history: HTTP %d", status)
	}
	return h.Iterations, nil
}

// reference plays the edit script once, alone, against a fault-free
// in-process server and returns its history: the ground truth chaos
// survivors and recovered sessions are held to.
func reference(o *options, f *fleet) ([]schemaio.IterationDoc, error) {
	srv, base, stop, err := startServer(o, nil, nil)
	if err != nil {
		return nil, err
	}
	defer stop()
	defer drain(srv)
	users, _ := f.run(base, 1, canonRaw, editScript(o.iters))
	if u := users[0]; u.err != nil {
		return nil, u.err
	} else if u.abandoned || u.steps != o.iters {
		return nil, errors.New("reference run did not complete its script")
	}
	return users[0].history()
}

// canon is how much operational metadata a history comparison ignores.
type canon int

const (
	// canonRaw zeroes nothing: recovery must hand acknowledged
	// iterations back byte for byte.
	canonRaw canon = iota
	// canonTiming zeroes ElapsedNS: wall-clock telemetry is not part of
	// the determinism contract.
	canonTiming
	// canonOperational also zeroes the match-cache counters: they are
	// operational telemetry, so cache traffic legitimately differs
	// between runs.
	canonOperational
)

// canonical returns a copy of iters with the metadata level ignores
// zeroed.
func canonical(iters []schemaio.IterationDoc, level canon) []schemaio.IterationDoc {
	c := append([]schemaio.IterationDoc(nil), iters...)
	for i := range c {
		s := &c[i].Solution
		if level >= canonTiming {
			s.ElapsedNS = 0
		}
		if level >= canonOperational {
			s.CacheHits, s.CacheMisses, s.CacheEvictions = 0, 0, 0
		}
	}
	return c
}

// hash is the SHA-256 of v's JSON encoding, so 10k users cost 10k
// digests rather than 10k histories held in memory.
func hash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkFleet holds every user to the full script: an error, an
// abandoned script or a history of the wrong length fails the run. It
// reports whether all histories digest alike.
func checkFleet(users []*user, steps int) (bool, error) {
	for i, u := range users {
		switch {
		case u.err != nil:
			return false, fmt.Errorf("user %d: %w", i, u.err)
		case u.abandoned:
			return false, fmt.Errorf("user %d: abandoned its script after %d attempts against a fault-free server", i, maxSolveAttempts)
		case u.steps != steps:
			return false, fmt.Errorf("user %d: history has %d iterations, want %d", i, u.steps, steps)
		}
	}
	for _, u := range users {
		if u.digest != users[0].digest {
			return false, nil
		}
	}
	return true, nil
}

// merged pools the users' latencies and retry counters.
func merged(users []*user) user {
	var m user
	for _, u := range users {
		m.solveMs = append(m.solveMs, u.solveMs...)
		m.patchMs = append(m.patchMs, u.patchMs...)
		m.rejections += u.rejections
		m.transients += u.transients
		m.slept += u.slept
	}
	return m
}

// latency is a latency summary in milliseconds.
type latency struct{ p50, p95, p99, max float64 }

// summarize sorts ms and takes nearest-rank percentiles.
func summarize(ms []float64) latency {
	if len(ms) == 0 {
		return latency{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 { return ms[int(q*float64(len(ms)-1))] }
	return latency{at(0.50), at(0.95), at(0.99), ms[len(ms)-1]}
}

// fleetDoc is the part of BENCH_serve.json and BENCH_shard.json that
// describes the user fleet.
type fleetDoc struct {
	Users         int     `json:"users"`
	ItersPerUser  int     `json:"itersPerUser"`
	Sources       int     `json:"sources"`
	TotalSolves   int     `json:"totalSolves"`
	WallSeconds   float64 `json:"wallSeconds"`
	SolvesPerSec  float64 `json:"solvesPerSec"`
	LatencyMsP50  float64 `json:"latencyMsP50"`
	LatencyMsP95  float64 `json:"latencyMsP95"`
	LatencyMsP99  float64 `json:"latencyMsP99"`
	LatencyMsMax  float64 `json:"latencyMsMax"`
	Rejections429 int     `json:"rejections429"`
	Transient5xx  int     `json:"transient5xxRetries"`
	Deterministic bool    `json:"deterministic"`
}

func (f *fleet) doc(m *user, users, iters int, wall time.Duration, deterministic bool) fleetDoc {
	lat := summarize(m.solveMs)
	d := fleetDoc{
		Users:         users,
		ItersPerUser:  iters,
		Sources:       f.sources,
		TotalSolves:   users * iters,
		WallSeconds:   wall.Seconds(),
		LatencyMsP50:  lat.p50,
		LatencyMsP95:  lat.p95,
		LatencyMsP99:  lat.p99,
		LatencyMsMax:  lat.max,
		Rejections429: m.rejections,
		Transient5xx:  m.transients,
		Deterministic: deterministic,
	}
	if wall > 0 {
		d.SolvesPerSec = float64(d.TotalSolves) / wall.Seconds()
	}
	return d
}

// writeBench writes doc as indented JSON to path and echoes it to w.
func writeBench(w io.Writer, path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
