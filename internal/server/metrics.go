package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"ube/internal/wal"
)

// latencyBucketsMs are the upper bounds (milliseconds, inclusive) of the
// fixed solve-latency histogram; the implicit final bucket is +Inf.
var latencyBucketsMs = [...]int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}

// metrics is the server's operational counter set, served by /metrics.
// Everything is a plain atomic so the hot path (workers, handlers) never
// contends on a lock to count.
type metrics struct {
	sessionsCreated atomic.Int64
	sessionsActive  atomic.Int64
	sessionsEvicted atomic.Int64

	solvesAdmitted  atomic.Int64 // accepted into the admission queue
	solves          atomic.Int64 // completed successfully
	solveErrors     atomic.Int64 // engine/validation failures
	solvesCancelled atomic.Int64 // client gone, or cancelled mid-solve
	solvePanics     atomic.Int64 // worker panics recovered into 500s
	solveTimeouts   atomic.Int64 // per-solve deadline expiries (504s)
	rejections      atomic.Int64 // 429s from the admission queue

	churnsAdmitted  atomic.Int64 // churn batches accepted into the admission queue
	churns          atomic.Int64 // universe-mutation batches committed
	churnErrors     atomic.Int64 // churn batches refused (validation, durability, or a recovered panic)
	churnConflicts  atomic.Int64 // churn batches refused for pinned sources (409s)
	churnsCancelled atomic.Int64 // churn batches whose client vanished before execution

	queueDepth      atomic.Int64 // admitted, not yet executing
	inFlight        atomic.Int64 // executing right now
	auditDropped    atomic.Int64 // audit lines lost to sink write errors
	walAppendErrors atomic.Int64 // durability commits the server had to refuse

	// Component memo traffic summed over solves (engine.CacheStats).
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64

	solveCacheHits      atomic.Int64 // solves answered by the cross-session memo
	solveCacheMisses    atomic.Int64 // solves that ran the engine and filled the memo
	solveCacheEvictions atomic.Int64 // memo entries dropped by the LRU bound

	tracesCaptured   atomic.Int64 // solves traced and retained in a session ring
	tracesSampledOut atomic.Int64 // solves not traced under the load sampling policy
	traceTick        atomic.Int64 // sampling counter (not exported)

	latencyCount   atomic.Int64
	latencySumNS   atomic.Int64
	latencyBuckets [len(latencyBucketsMs) + 1]atomic.Int64
}

// observeLatency records one solve's wall-clock duration.
func (m *metrics) observeLatency(d time.Duration) {
	m.latencyCount.Add(1)
	m.latencySumNS.Add(d.Nanoseconds())
	ms := d.Milliseconds()
	for i, le := range latencyBucketsMs {
		if ms <= le {
			m.latencyBuckets[i].Add(1)
			return
		}
	}
	m.latencyBuckets[len(latencyBucketsMs)].Add(1)
}

// bucketDoc is one histogram bucket in the /metrics JSON.
type bucketDoc struct {
	LE    string `json:"le"` // upper bound in ms, or "+Inf"
	Count int64  `json:"count"`
}

// metricsDoc is the /metrics response body.
type metricsDoc struct {
	SessionsCreated int64 `json:"sessionsCreated"`
	SessionsActive  int64 `json:"sessionsActive"`
	SessionsEvicted int64 `json:"sessionsEvicted"`

	SolvesAdmitted  int64 `json:"solvesAdmitted"`
	Solves          int64 `json:"solves"`
	SolveErrors     int64 `json:"solveErrors"`
	SolvesCancelled int64 `json:"solvesCancelled"`
	SolvePanics     int64 `json:"solvePanics"`
	SolveTimeouts   int64 `json:"solveTimeouts"`
	QueueRejections int64 `json:"queueRejections"`
	ChurnsAdmitted  int64 `json:"churnsAdmitted"`
	Churns          int64 `json:"churns"`
	ChurnErrors     int64 `json:"churnErrors"`
	ChurnConflicts  int64 `json:"churnConflicts"`
	ChurnsCancelled int64 `json:"churnsCancelled"`
	QueueDepth      int64 `json:"queueDepth"`
	InFlight        int64 `json:"inFlight"`
	AuditDropped    int64 `json:"auditLinesDropped"`

	// Per-solve component memo traffic (engine.Solution.MatchCache),
	// summed over solves; the names predate the component memo.
	MatchCacheHits      int64 `json:"matchCacheHits"`
	MatchCacheMisses    int64 `json:"matchCacheMisses"`
	MatchCacheEvictions int64 `json:"matchCacheEvictions"`

	SolveCacheHits      int64 `json:"solveCacheHits"`
	SolveCacheMisses    int64 `json:"solveCacheMisses"`
	SolveCacheEvictions int64 `json:"solveCacheEvictions"`

	TracesCaptured   int64 `json:"tracesCaptured"`
	TracesSampledOut int64 `json:"tracesSampledOut"`

	SolveLatency struct {
		Count   int64       `json:"count"`
		SumMs   float64     `json:"sumMs"`
		Buckets []bucketDoc `json:"buckets"`
	} `json:"solveLatencyMs"`

	// WAL carries the write-ahead log's counters when durability is on;
	// Recovery reports what startup recovery found (absent after a
	// fresh, empty start too — it is set whenever a WAL was opened).
	WAL      *walMetricsDoc `json:"wal,omitempty"`
	Recovery *recoveryDoc   `json:"walRecovery,omitempty"`
}

// walMetricsDoc is the wal.* section of /metrics: the log's own
// counters plus the commits the server refused because an append
// failed, and the group-commit flush-latency histogram.
type walMetricsDoc struct {
	Appends        uint64 `json:"appends"`
	AppendErrors   uint64 `json:"appendErrors"`
	CommitRefusals int64  `json:"commitRefusals"`
	Batches        uint64 `json:"batches"`
	Fsyncs         uint64 `json:"fsyncs"`
	FsyncStalls    uint64 `json:"fsyncStalls"`
	Rotations      uint64 `json:"rotations"`
	BytesWritten   uint64 `json:"bytesWritten"`
	LastSeq        uint64 `json:"lastSeq"`
	ActiveSegment  int    `json:"activeSegment"`
	ActiveBytes    int64  `json:"activeBytes"`

	FlushLatency struct {
		Buckets []bucketDoc `json:"buckets"`
	} `json:"flushLatencyMs"`
}

// metricsSnapshot renders /metrics: the counter snapshot plus, when
// durability is configured, the WAL's counters and the startup
// recovery report.
func (s *Server) metricsSnapshot() *metricsDoc {
	d := s.metrics.snapshot()
	d.Recovery = s.recovered
	if s.wal == nil {
		return d
	}
	st := s.wal.Stats()
	wd := &walMetricsDoc{
		Appends:        st.Appends,
		AppendErrors:   st.AppendErrors,
		CommitRefusals: s.metrics.walAppendErrors.Load(),
		Batches:        st.Batches,
		Fsyncs:         st.Fsyncs,
		FsyncStalls:    st.FsyncStalls,
		Rotations:      st.Rotations,
		BytesWritten:   st.BytesWritten,
		LastSeq:        st.LastSeq,
		ActiveSegment:  st.ActiveSegment,
		ActiveBytes:    st.ActiveBytes,
	}
	wd.FlushLatency.Buckets = make([]bucketDoc, 0, len(st.FlushLatency))
	cum := int64(0)
	for i, le := range wal.FlushLatencyBucketsMs {
		cum += int64(st.FlushLatency[i])
		wd.FlushLatency.Buckets = append(wd.FlushLatency.Buckets, bucketDoc{
			LE:    strconv.FormatFloat(le, 'g', -1, 64),
			Count: cum,
		})
	}
	cum += int64(st.FlushLatency[len(wal.FlushLatencyBucketsMs)])
	wd.FlushLatency.Buckets = append(wd.FlushLatency.Buckets, bucketDoc{LE: "+Inf", Count: cum})
	d.WAL = wd
	return d
}

// snapshot renders the counters for /metrics. Counters are read
// individually, so the snapshot is only loosely consistent — fine for
// monitoring, which is all it serves.
func (m *metrics) snapshot() *metricsDoc {
	d := &metricsDoc{
		SessionsCreated: m.sessionsCreated.Load(),
		SessionsActive:  m.sessionsActive.Load(),
		SessionsEvicted: m.sessionsEvicted.Load(),

		SolvesAdmitted:  m.solvesAdmitted.Load(),
		Solves:          m.solves.Load(),
		SolveErrors:     m.solveErrors.Load(),
		SolvesCancelled: m.solvesCancelled.Load(),
		SolvePanics:     m.solvePanics.Load(),
		SolveTimeouts:   m.solveTimeouts.Load(),
		QueueRejections: m.rejections.Load(),
		ChurnsAdmitted:  m.churnsAdmitted.Load(),
		Churns:          m.churns.Load(),
		ChurnErrors:     m.churnErrors.Load(),
		ChurnConflicts:  m.churnConflicts.Load(),
		ChurnsCancelled: m.churnsCancelled.Load(),
		QueueDepth:      m.queueDepth.Load(),
		InFlight:        m.inFlight.Load(),
		AuditDropped:    m.auditDropped.Load(),

		MatchCacheHits:      m.cacheHits.Load(),
		MatchCacheMisses:    m.cacheMisses.Load(),
		MatchCacheEvictions: m.cacheEvictions.Load(),

		SolveCacheHits:      m.solveCacheHits.Load(),
		SolveCacheMisses:    m.solveCacheMisses.Load(),
		SolveCacheEvictions: m.solveCacheEvictions.Load(),

		TracesCaptured:   m.tracesCaptured.Load(),
		TracesSampledOut: m.tracesSampledOut.Load(),
	}
	d.SolveLatency.Count = m.latencyCount.Load()
	d.SolveLatency.SumMs = float64(m.latencySumNS.Load()) / 1e6
	d.SolveLatency.Buckets = make([]bucketDoc, 0, len(latencyBucketsMs)+1)
	cum := int64(0)
	for i, le := range latencyBucketsMs {
		cum += m.latencyBuckets[i].Load()
		d.SolveLatency.Buckets = append(d.SolveLatency.Buckets, bucketDoc{LE: msLabel(le), Count: cum})
	}
	cum += m.latencyBuckets[len(latencyBucketsMs)].Load()
	d.SolveLatency.Buckets = append(d.SolveLatency.Buckets, bucketDoc{LE: "+Inf", Count: cum})
	return d
}

func msLabel(ms int64) string { return strconv.FormatInt(ms, 10) }
