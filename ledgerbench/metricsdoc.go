package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// bucket is one cumulative histogram bucket of a shard's /metrics.
type bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// shardMetrics is the part of one shard's /metrics document the ledger
// reads: solve and churn counters, and the wal.* block.
type shardMetrics struct {
	SessionsCreated int64 `json:"sessionsCreated"`
	Solves          int64 `json:"solves"`
	SolveErrors     int64 `json:"solveErrors"`
	QueueRejections int64 `json:"queueRejections"`
	Churns          int64 `json:"churns"`
	ChurnErrors     int64 `json:"churnErrors"`
	WAL             *struct {
		Appends      int64 `json:"appends"`
		AppendErrors int64 `json:"appendErrors"`
		Batches      int64 `json:"batches"`
		Fsyncs       int64 `json:"fsyncs"`
		BytesWritten int64 `json:"bytesWritten"`
		FlushLatency struct {
			Buckets []bucket `json:"buckets"`
		} `json:"flushLatencyMs"`
	} `json:"wal"`
}

// fleetMetrics is the part of the router's aggregated /metrics the ledger
// reads: each shard's document, passed through verbatim.
type fleetMetrics struct {
	Shards map[string]json.RawMessage `json:"shards"`
}

// parseFleetMetrics decodes the router's /metrics body into per-shard
// documents keyed by shard URL.
func parseFleetMetrics(body []byte) (map[string]shardMetrics, error) {
	var doc fleetMetrics
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding router metrics: %w", err)
	}
	if len(doc.Shards) == 0 {
		return nil, fmt.Errorf("router metrics carry no shard documents")
	}
	out := make(map[string]shardMetrics, len(doc.Shards))
	for name, raw := range doc.Shards {
		var m shardMetrics
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("decoding metrics of shard %s: %w", name, err)
		}
		out[name] = m
	}
	return out, nil
}

// walTotals sums the WAL counters over all shards; the flush histogram is
// summed bucket by bucket (every shard uses the same bounds).
type walTotals struct {
	Appends, AppendErrors, Batches, Fsyncs, Bytes int64
	Flush                                         []bucket
}

func sumWAL(shards map[string]shardMetrics) (walTotals, error) {
	var t walTotals
	for name, m := range shards {
		if m.WAL == nil {
			return t, fmt.Errorf("shard %s reports no wal block", name)
		}
		t.Appends += m.WAL.Appends
		t.AppendErrors += m.WAL.AppendErrors
		t.Batches += m.WAL.Batches
		t.Fsyncs += m.WAL.Fsyncs
		t.Bytes += m.WAL.BytesWritten
		b := m.WAL.FlushLatency.Buckets
		if t.Flush == nil {
			t.Flush = append([]bucket(nil), b...)
			continue
		}
		if len(b) != len(t.Flush) {
			return t, fmt.Errorf("shard %s flush histogram has %d buckets, want %d", name, len(b), len(t.Flush))
		}
		for i := range b {
			if b[i].LE != t.Flush[i].LE {
				return t, fmt.Errorf("shard %s flush bucket %d bound %s, want %s", name, i, b[i].LE, t.Flush[i].LE)
			}
			t.Flush[i].Count += b[i].Count
		}
	}
	return t, nil
}

// sub returns the counter growth from before to t.
func (t walTotals) sub(before walTotals) walTotals {
	out := walTotals{
		Appends:      t.Appends - before.Appends,
		AppendErrors: t.AppendErrors - before.AppendErrors,
		Batches:      t.Batches - before.Batches,
		Fsyncs:       t.Fsyncs - before.Fsyncs,
		Bytes:        t.Bytes - before.Bytes,
		Flush:        append([]bucket(nil), t.Flush...),
	}
	for i := range out.Flush {
		if i < len(before.Flush) {
			out.Flush[i].Count -= before.Flush[i].Count
		}
	}
	return out
}

// histQuantile estimates the q-quantile of a cumulative histogram by
// linear interpolation inside the bucket where the cumulative count
// crosses q·total (the lower edge of the first bucket is 0). A quantile
// landing in the +Inf bucket reports the last finite bound. It refuses
// fewer than minCount observations.
func histQuantile(buckets []bucket, q float64, minCount int64) (float64, error) {
	if len(buckets) == 0 {
		return 0, fmt.Errorf("empty histogram")
	}
	total := buckets[len(buckets)-1].Count
	if total < minCount || total == 0 {
		return 0, fmt.Errorf("histogram holds %d observations, need %d", total, minCount)
	}
	want := q * float64(total)
	lo, prev := 0.0, int64(0)
	for _, b := range buckets {
		if b.LE == "+Inf" {
			return lo, nil
		}
		hi, err := strconv.ParseFloat(b.LE, 64)
		if err != nil {
			return 0, fmt.Errorf("histogram bound %q: %w", b.LE, err)
		}
		if float64(b.Count) >= want && b.Count > prev {
			frac := (want - float64(prev)) / float64(b.Count-prev)
			return lo + math.Max(0, frac)*(hi-lo), nil
		}
		lo, prev = hi, b.Count
	}
	return lo, nil
}

// countAuditActions counts the JSONL audit log's lines by action.
func countAuditActions(data []byte) (map[string]int64, error) {
	counts := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var e struct {
			Action string `json:"action"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("audit line %d: %w", line, err)
		}
		counts[e.Action]++
	}
	return counts, sc.Err()
}
