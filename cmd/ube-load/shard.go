// Sharded mode: N shard children behind an in-process ube-router,
// driven by the same scripted users as the flat benchmark. Each shard
// is a re-exec'd child (see spawnChild), a real OS process with its own
// heap and GC — the deployed topology, not a simulation —
// and the whole user fleet is aimed at the router mounted over the
// children's announced addresses.
//
// Determinism across shards is the point of the exercise: every user
// runs the identical script, so every per-user history must be
// bit-identical (operational telemetry aside) no matter which shard the
// ring placed the session on. The run fails, and BENCH_shard.json says
// deterministic:false, if any pair of users diverges.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"

	"ube/internal/router"
)

// shardBenchDoc is the BENCH_shard.json schema.
type shardBenchDoc struct {
	fleetDoc
	Shards        int  `json:"shards"`
	BinaryWire    bool `json:"binaryWire"`
	RouterMetrics any  `json:"routerMetrics,omitempty"`
}

func runShard(o *options, stdout io.Writer) error {
	f, err := catalogFleet(o)
	if err != nil {
		return err
	}

	// Each shard must hold every session the ring could place on it;
	// sizing all of them for the full fleet (MaxSessions = users + 8)
	// keeps placement skew safe.
	urls := make([]string, 0, o.shards)
	for i := 0; i < o.shards; i++ {
		c, err := spawnChild(o)
		if err != nil {
			return fmt.Errorf("spawning shard %d: %w", i, err)
		}
		defer c.kill()
		urls = append(urls, c.base)
	}
	rt, err := router.New(router.Config{Shards: urls})
	if err != nil {
		return err
	}
	defer rt.Close()
	base, stop, err := serve(rt.Handler())
	if err != nil {
		return err
	}
	defer stop()
	log.Printf("router on %s fronting %d shards (workers=%d queue=%d binary=%v)",
		base, o.shards, o.workers, o.queue, o.binary)

	users, wall := f.run(base, o.users, canonOperational, editScript(o.iters))
	deterministic, err := checkFleet(users, o.iters)
	if err != nil {
		return err
	}
	m := merged(users)
	doc := &shardBenchDoc{
		fleetDoc:   f.doc(&m, o.users, o.iters, wall, deterministic),
		Shards:     o.shards,
		BinaryWire: o.binary,
	}
	var metrics any
	if getJSON(f.cl, base+"/metrics", &metrics) == nil {
		doc.RouterMetrics = metrics
	}
	if err := writeBench(stdout, o.out, doc); err != nil {
		return err
	}
	if !deterministic {
		return errors.New("FAIL: user histories diverged across shards — determinism contract broken")
	}
	return nil
}
