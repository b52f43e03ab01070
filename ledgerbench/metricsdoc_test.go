package main

import (
	"math"
	"testing"

	"ube/internal/engine"
	"ube/internal/model"
)

const fleetBody = `{
  "router": {"solvesRouted": 5},
  "totals": {"solves": 5},
  "shards": {
    "http://a": {"solves": 3, "churns": 1, "sessionsCreated": 2,
      "wal": {"appends": 6, "batches": 4, "fsyncs": 4, "bytesWritten": 600,
        "flushLatencyMs": {"buckets": [{"le": "1", "count": 2}, {"le": "5", "count": 4}, {"le": "+Inf", "count": 4}]}}},
    "http://b": {"solves": 2, "churns": 0, "sessionsCreated": 1,
      "wal": {"appends": 4, "batches": 2, "fsyncs": 2, "bytesWritten": 400,
        "flushLatencyMs": {"buckets": [{"le": "1", "count": 0}, {"le": "5", "count": 2}, {"le": "+Inf", "count": 2}]}}}
  }
}`

func TestParseFleetMetricsAndWAL(t *testing.T) {
	shards, err := parseFleetMetrics([]byte(fleetBody))
	if err != nil {
		t.Fatal(err)
	}
	if shards["http://a"].Solves != 3 || shards["http://b"].SessionsCreated != 1 {
		t.Fatalf("shards = %+v", shards)
	}
	tot, err := sumWAL(shards)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Appends != 10 || tot.Fsyncs != 6 || tot.Bytes != 1000 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Flush[0].Count != 2 || tot.Flush[1].Count != 6 || tot.Flush[2].Count != 6 {
		t.Fatalf("summed histogram = %+v", tot.Flush)
	}
	d := tot.sub(walTotals{Appends: 4, Fsyncs: 1, Flush: []bucket{{"1", 1}, {"5", 1}, {"+Inf", 1}}})
	if d.Appends != 6 || d.Fsyncs != 5 || d.Flush[1].Count != 5 {
		t.Fatalf("delta = %+v", d)
	}
	if _, err := parseFleetMetrics([]byte(`{"shards": {}}`)); err == nil {
		t.Fatal("metrics without shard documents must fail")
	}
	if _, err := sumWAL(map[string]shardMetrics{"x": {}}); err == nil {
		t.Fatal("a shard without a wal block must fail")
	}
}

func TestHistQuantile(t *testing.T) {
	b := []bucket{{"1", 2}, {"5", 6}, {"+Inf", 6}}
	// Half of 6 is 3: one past the 2 in (0,1], so 1/4 of the way into (1,5].
	got, err := histQuantile(b, 0.5, 1)
	if err != nil || math.Abs(got-2) > 1e-12 {
		t.Fatalf("p50 = %v, %v; want 2", got, err)
	}
	got, err = histQuantile([]bucket{{"1", 1}, {"+Inf", 4}}, 0.9, 1)
	if err != nil || got != 1 {
		t.Fatalf("p90 in the +Inf bucket = %v, %v; want the last finite bound 1", got, err)
	}
	if _, err := histQuantile([]bucket{{"1", 0}, {"+Inf", 0}}, 0.5, 1); err == nil {
		t.Fatal("an empty histogram must fail")
	}
}

func TestCountAuditActions(t *testing.T) {
	log := `{"ts":"t","session":"g1","action":"session.create"}
{"ts":"t","session":"g1","action":"solve.done","detail":{"iteration":0}}
{"ts":"t","session":"g1","action":"solve.done"}
`
	counts, err := countAuditActions([]byte(log))
	if err != nil {
		t.Fatal(err)
	}
	if counts["solve.done"] != 2 || counts["session.create"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := countAuditActions([]byte("not json\n")); err == nil {
		t.Fatal("a malformed line must fail")
	}
}

func TestDigest(t *testing.T) {
	a := []digestEntry{{0, []int{1, 2}, 0.5}, {1, []int{3}, 0.25}}
	if digestOf(a, 2) != digestOf(append([]digestEntry(nil), a...), 2) {
		t.Fatal("digest is not deterministic")
	}
	b := []digestEntry{a[1], a[0]}
	if digestOf(a, 2) == digestOf(b, 2) {
		t.Fatal("digest ignores order")
	}
	c := []digestEntry{{0, []int{1, 2}, math.Nextafter(0.5, 1)}, a[1]}
	if digestOf(a, 2) == digestOf(c, 2) {
		t.Fatal("digest ignores the last bit of a quality")
	}
	if digestOf(a, 1) == digestOf(a, 2) || digestOf(nil, 3) != "empty" {
		t.Fatal("prefix digests must differ and an empty one reads empty")
	}
}

func TestCheckSolution(t *testing.T) {
	p := engine.Problem{MaxSources: 2, Constraints: model.Constraints{Sources: []int{4}}}
	ok := &engine.Solution{Sources: []int{1, 4}, Feasible: true}
	if err := checkSolution(p, ok); err != nil {
		t.Fatal(err)
	}
	for name, sol := range map[string]*engine.Solution{
		"infeasible": {Sources: []int{1, 4}},
		"too many":   {Sources: []int{1, 2, 4}, Feasible: true},
		"unpinned":   {Sources: []int{1, 2}, Feasible: true},
		"nil":        nil,
	} {
		if err := checkSolution(p, sol); err == nil {
			t.Errorf("%s solution passed the check", name)
		}
	}
}
