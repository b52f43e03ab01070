package main

// Churn mode (-churn): the dynamic-universe counterpart of the base
// load loop. N simulated users each own a session over the same base
// catalog and play an identical interleaved script — solve, PATCH the
// shared mutation batch k, solve, ... — with the batches drawn from
// synth.ChurnSchedule, so the whole run is a pure function of the
// flags. Because every user applies the same mutations at the same
// script positions, the determinism contract extends across churn:
// all N iteration histories and all N churn acknowledgements must be
// bit-identical (timing and cache metadata aside) no matter how the
// worker pool interleaved the sessions. The run also requires the
// server's churn counters to reconcile: every admitted batch
// committed, none errored, conflicted, or was cancelled. Violations
// exit non-zero; the verdict and latency split land in the -o JSON.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"ube/internal/model"
	"ube/internal/schemaio"
	"ube/internal/synth"
)

// churnBenchDoc is the BENCH_churn_serve.json schema.
type churnBenchDoc struct {
	Users         int     `json:"users"`
	Steps         int     `json:"steps"`
	SolvesPerUser int     `json:"solvesPerUser"`
	SourcesStart  int     `json:"sourcesStart"`
	SourcesEnd    int     `json:"sourcesEnd"`
	TotalSolves   int     `json:"totalSolves"`
	TotalChurns   int     `json:"totalChurns"`
	WallSeconds   float64 `json:"wallSeconds"`
	SolveMsP50    float64 `json:"solveMsP50"`
	SolveMsP95    float64 `json:"solveMsP95"`
	SolveMsMax    float64 `json:"solveMsMax"`
	ChurnMsP50    float64 `json:"churnMsP50"`
	ChurnMsP95    float64 `json:"churnMsP95"`
	ChurnMsMax    float64 `json:"churnMsMax"`
	Rejections429 int     `json:"rejections429"`
	Deterministic bool    `json:"deterministic"`
	MetricsOK     bool    `json:"churnMetricsReconcile"`
	ServerMetrics any     `json:"serverMetrics,omitempty"`
}

// churnAck is the part of the PATCH acknowledgement shared verbatim by
// every user: the batch number, the post-batch universe size and the
// removed IDs. (The session field is per-user and excluded.)
type churnAck struct {
	Batch   int   `json:"batch"`
	Sources int   `json:"sources"`
	Removed []int `json:"removed"`
}

// churnMetrics is the subset of /metrics the churn counters reconcile.
type churnMetrics struct {
	ChurnsAdmitted  int64 `json:"churnsAdmitted"`
	Churns          int64 `json:"churns"`
	ChurnErrors     int64 `json:"churnErrors"`
	ChurnConflicts  int64 `json:"churnConflicts"`
	ChurnsCancelled int64 `json:"churnsCancelled"`
}

// reconciles reports whether exactly total batches were admitted and
// committed, with none errored, conflicted or cancelled.
func (m *churnMetrics) reconciles(total int) bool {
	return m.Churns == int64(total) && m.ChurnsAdmitted == m.Churns &&
		m.ChurnErrors == 0 && m.ChurnConflicts == 0 && m.ChurnsCancelled == 0
}

func runChurn(o *options, stdout io.Writer) error {
	cfg := synth.QuickConfig(o.n)
	base, batches, err := synth.ChurnSchedule(cfg, synth.ChurnConfig{Seed: cfg.Seed + 71, Steps: o.iters})
	if err != nil {
		return fmt.Errorf("generating churn schedule: %w", err)
	}
	f, err := newFleet(o, base)
	if err != nil {
		return err
	}
	srv, url, stop, err := startServer(o, nil, nil)
	if err != nil {
		return err
	}
	defer stop()
	log.Printf("in-process server on %s (workers=%d queue=%d churn steps=%d)", url, o.workers, o.queue, len(batches))

	acks := make([]string, o.users)
	final := make([]int, o.users)
	users, wall := f.run(url, o.users, canonOperational, func(i int, u *user) error {
		a, err := churnScript(u, batches)
		acks[i], final[i] = hash(a), base.N()
		if len(a) > 0 {
			final[i] = a[len(a)-1].Sources
		}
		return err
	})
	deterministic, err := checkChurn(users, acks, len(batches)+1)
	if err != nil {
		return fmt.Errorf("churn %w", err)
	}
	if err := drain(srv); err != nil {
		return fmt.Errorf("in-process shutdown: %w", err)
	}
	var raw json.RawMessage
	if err := getJSON(f.cl, url+"/metrics", &raw); err != nil {
		return fmt.Errorf("fetching metrics: %w", err)
	}
	var metrics churnMetrics
	if err := json.Unmarshal(raw, &metrics); err != nil {
		return fmt.Errorf("decoding churn metrics: %w", err)
	}

	m := merged(users)
	solve, churn := summarize(m.solveMs), summarize(m.patchMs)
	doc := &churnBenchDoc{
		Users:         o.users,
		Steps:         len(batches),
		SolvesPerUser: len(batches) + 1,
		SourcesStart:  base.N(),
		SourcesEnd:    final[0],
		TotalSolves:   o.users * (len(batches) + 1),
		TotalChurns:   o.users * len(batches),
		WallSeconds:   wall.Seconds(),
		SolveMsP50:    solve.p50,
		SolveMsP95:    solve.p95,
		SolveMsMax:    solve.max,
		ChurnMsP50:    churn.p50,
		ChurnMsP95:    churn.p95,
		ChurnMsMax:    churn.max,
		Rejections429: m.rejections,
		Deterministic: deterministic,
		ServerMetrics: raw,
	}
	doc.MetricsOK = metrics.reconciles(doc.TotalChurns)
	if err := writeBench(stdout, o.out, doc); err != nil {
		return err
	}
	if !deterministic {
		return errors.New("FAIL: churned histories diverged across users — determinism contract broken")
	}
	if !doc.MetricsOK {
		return fmt.Errorf("FAIL: churn counters do not reconcile: admitted=%d committed=%d errors=%d conflicts=%d cancelled=%d want admitted==committed==%d and zero otherwise",
			metrics.ChurnsAdmitted, metrics.Churns, metrics.ChurnErrors, metrics.ChurnConflicts, metrics.ChurnsCancelled, doc.TotalChurns)
	}
	return nil
}

// checkChurn is checkFleet with the users' churn acknowledgements held
// to agree as well as their histories.
func checkChurn(users []*user, acks []string, steps int) (bool, error) {
	for i, u := range users {
		u.digest = hash([]string{u.digest, acks[i]})
	}
	return checkFleet(users, steps)
}

// churnScript plays one user's interleaved script: solve, apply batch
// k, solve, ... and returns the batches' acknowledgements. The solve
// edits never pin sources — pins would 409 against scheduled removals
// — so the script exercises θ and weight edits instead. A churn
// conflict (409) is a hard error because the script cannot
// legitimately produce one.
func churnScript(u *user, batches [][]model.Mutation) ([]churnAck, error) {
	acks := make([]churnAck, 0, len(batches))
	for k := 0; ; k++ {
		edit := map[string]any{}
		switch {
		case k == 0: // cold solve
		case k%2 == 1: // tighten the matching threshold
			edit["theta"] = 0.75
		default: // bias cardinality, rescaling the rest
			edit["setWeights"] = map[string]float64{"card": 0.5}
		}
		if err := u.solve(edit); err != nil {
			return acks, fmt.Errorf("solve %d: %w", k, err)
		}
		if k == len(batches) {
			return acks, nil
		}
		var ack churnAck
		ms, err := u.call(http.MethodPatch, u.url+"/universe", schemaio.ChurnRequestDoc{Mutations: batches[k]}, &ack)
		if err != nil {
			return acks, fmt.Errorf("churn batch %d: %w", k, err)
		}
		u.patchMs = append(u.patchMs, ms)
		if ack.Batch != k+1 {
			return acks, fmt.Errorf("churn batch %d acknowledged as batch %d", k, ack.Batch)
		}
		acks = append(acks, ack)
	}
}
