// Command ube-load is a closed-loop load generator for ube-serve: N
// simulated users each create a session over a shared synthetic catalog
// and run the same solve → pin → tighten → reweight script, as fast as
// the server admits them. It reports throughput, latency percentiles and
// queue rejections as BENCH_serve.json, and verifies the service's
// determinism contract end to end: because every user runs an identical
// script against an identical session, all N iteration histories must be
// bit-identical (timing metadata aside) no matter how the scheduler
// interleaved them.
//
// Usage:
//
//	ube-load -users 32 -iters 4 -addr http://localhost:8080
//	ube-load -users 10            # no -addr: serves in-process
//	ube-load -chaos plan.json     # chaos mode: replayable fault injection (chaos.go)
//	ube-load -churn -users 8      # churn mode: shared mutation schedule, PATCH /universe (churn.go)
//	ube-load -kill-after 3        # durable mode: SIGKILL mid-run, recover, verify (durable.go)
//	ube-load -shards 4 -users 10000 -queue 4096
//	                              # sharded mode: shard children + router (shard.go)
//
// Every mode runs the same fleet (fleet.go): one server starter, one
// re-exec child protocol (-child), one retry loop and one scripted user.
// -binary carries solve and history responses as compact binary frames
// in any mode; -o names the BENCH document, which defaults per mode.
// Bad flags, or flags that select more than one mode, exit 2 with a
// usage message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ube/internal/server"
)

// options are the parsed flags.
type options struct {
	addr                   string
	users, iters, n, evals int
	workers, queue         int
	out                    string
	seed                   int64
	chaos                  string
	solveTimeout           time.Duration
	churn, binary, child   bool
	shards, killAfter      int
	walDir                 string
}

// defaultOut is each mode's BENCH document; chaos mode writes none.
var defaultOut = map[string]string{
	"flat":    "BENCH_serve.json",
	"churn":   "BENCH_churn_serve.json",
	"shard":   "BENCH_shard.json",
	"durable": "BENCH_durable.json",
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if o.child {
		err = runChild(o)
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseFlags parses and validates args, writing any complaint and the
// usage message to errOut.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("ube-load", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.addr, "addr", "", "base URL of a running ube-serve (empty: serve in-process; flat mode only)")
	fs.IntVar(&o.users, "users", 32, "concurrent simulated users")
	fs.IntVar(&o.iters, "iters", 4, "solve iterations per user (churn mode: mutation batches per user)")
	fs.IntVar(&o.n, "n", 40, "sources in the synthetic catalog")
	fs.IntVar(&o.evals, "evals", 400, "solver evaluation budget per solve")
	fs.IntVar(&o.workers, "workers", 4, "worker pool size of each spawned or in-process server")
	fs.IntVar(&o.queue, "queue", 32, "admission queue depth of each spawned or in-process server")
	fs.StringVar(&o.out, "o", "", "benchmark output path (default per mode: BENCH_serve.json, BENCH_churn_serve.json, BENCH_shard.json or BENCH_durable.json)")
	fs.Int64Var(&o.seed, "seed", 1, "base seed for the per-user backoff-jitter RNGs")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan JSON path: run chaos mode (in-process only)")
	fs.DurationVar(&o.solveTimeout, "solve-timeout", 2*time.Second, "per-solve deadline in chaos mode")
	fs.BoolVar(&o.churn, "churn", false, "churn mode: interleave solves with a shared seeded mutation schedule (in-process only)")
	fs.BoolVar(&o.binary, "binary", false, "carry solve and history responses as compact binary frames")
	fs.IntVar(&o.shards, "shards", 0, "sharded mode: spawn N shard children behind an in-process router")
	fs.IntVar(&o.killAfter, "kill-after", 0, "durable mode: SIGKILL the WAL-backed server child after N acknowledged solves, then verify recovery")
	fs.StringVar(&o.walDir, "wal-dir", "", "durable mode: WAL directory for the server child (empty: scratch dir)")
	fs.BoolVar(&o.child, "child", false, "internal: run as a spawned server child")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(errOut, "ube-load: %v\n", err)
		fs.Usage()
		return nil, err
	}
	if o.out == "" {
		o.out = defaultOut[o.mode()]
	}
	return o, nil
}

// validate rejects flag values that cannot describe a run.
func (o *options) validate() error {
	for _, c := range []struct {
		name     string
		val, min int
	}{
		{"users", o.users, 1}, {"iters", o.iters, 1}, {"n", o.n, 1}, {"evals", o.evals, 1},
		{"shards", o.shards, 0}, {"kill-after", o.killAfter, 0},
	} {
		if c.val < c.min {
			return fmt.Errorf("-%s %d: must be at least %d", c.name, c.val, c.min)
		}
	}
	modes := 0
	for _, on := range []bool{o.chaos != "", o.churn, o.shards > 0, o.killAfter > 0} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		return errors.New("-chaos, -churn, -shards and -kill-after select different modes; give at most one")
	case o.addr != "" && o.mode() != "flat":
		return fmt.Errorf("-addr drives an external server, but %s mode serves its own; drop -addr", o.mode())
	case o.walDir != "" && o.mode() != "durable" && !o.child:
		return errors.New("-wal-dir is for durable mode; add -kill-after")
	case o.killAfter >= o.iters:
		return fmt.Errorf("-kill-after %d must be below -iters %d, or nothing is left to resume", o.killAfter, o.iters)
	}
	return nil
}

func (o *options) mode() string {
	switch {
	case o.chaos != "":
		return "chaos"
	case o.churn:
		return "churn"
	case o.shards > 0:
		return "shard"
	case o.killAfter > 0:
		return "durable"
	}
	return "flat"
}

// run runs the selected mode, echoing its BENCH document or verdict to
// stdout.
func run(o *options, stdout io.Writer) error {
	switch o.mode() {
	case "chaos":
		return runChaos(o, stdout)
	case "churn":
		return runChurn(o, stdout)
	case "shard":
		return runShard(o, stdout)
	case "durable":
		return runDurable(*o, stdout)
	}
	return runFlat(o, stdout)
}

// serveDoc is the BENCH_serve.json schema.
type serveDoc struct {
	fleetDoc
	RetriesSlept  int `json:"retriesSlept"`
	ServerMetrics any `json:"serverMetrics,omitempty"`
}

// runFlat is the benchmark mode: the user fleet against -addr, or
// against an in-process server when -addr is empty.
func runFlat(o *options, stdout io.Writer) error {
	f, err := catalogFleet(o)
	if err != nil {
		return err
	}
	base := o.addr
	var srv *server.Server
	if base == "" {
		var stop func()
		if srv, base, stop, err = startServer(o, nil, nil); err != nil {
			return err
		}
		defer stop()
		log.Printf("in-process server on %s (workers=%d queue=%d)", base, o.workers, o.queue)
	}

	users, wall := f.run(base, o.users, canonTiming, editScript(o.iters))
	deterministic, err := checkFleet(users, o.iters)
	if err != nil {
		return err
	}
	if srv != nil {
		if err := drain(srv); err != nil {
			return fmt.Errorf("in-process shutdown: %w", err)
		}
	}
	m := merged(users)
	doc := &serveDoc{fleetDoc: f.doc(&m, o.users, o.iters, wall, deterministic), RetriesSlept: m.slept}
	var metrics any
	if getJSON(f.cl, base+"/metrics", &metrics) == nil {
		doc.ServerMetrics = metrics
	}
	if err := writeBench(stdout, o.out, doc); err != nil {
		return err
	}
	if !deterministic {
		return errors.New("FAIL: user histories diverged — determinism contract broken")
	}
	return nil
}
