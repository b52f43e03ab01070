// Command ledgerbench is µBE's performance ledger: one benchmark with
// three workloads, measured end to end with tracing off and per layer in
// a separate traced run. See README.md for the workloads, the metrics and
// how to run it.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash ledgerbench/run.sh --workload fig6-feedback --seed 1 --seconds 20 --trace 0
//	bash ledgerbench/run.sh --workload churn-refresh --seed 1 --seconds 20 --spread 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Everything above it is a human-readable report.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

var workloads = map[string]func(runConfig) (*result, error){
	"fig6-feedback":  runFig6,
	"serve-sessions": runServe,
	"churn-refresh":  runChurn,
}

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "fig6-feedback, serve-sessions or churn-refresh")
		seed     = flag.Int64("seed", 1, "workload seed: every input is a pure function of it")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase (a traced run splits it between its untraced and traced phases)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out      = flag.String("out", ".bench_build/ledger", "directory for span files and scratch state")
		spreadN  = flag.Int("spread", 0, "run the workload this many times, seeds seed…seed+N−1, each in a fresh process, and report each metric's median and quartile spread")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "ledgerbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "ledgerbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ledgerbench: --seconds must be positive")
		os.Exit(2)
	}
	if *spreadN > 0 {
		if err := runSpread(*workload, *seed, *seconds, *traced, *out, *spreadN); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1, OutDir: *out}
	res, err := workloads[*workload](cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledgerbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := report(os.Stdout, cfg, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// report prints the human-readable report and returns the result line.
func report(w io.Writer, cfg runConfig, res *result) (string, error) {
	set := endToEnd
	mode := "end to end, tracing off"
	if cfg.Trace {
		set = perLayer
		mode = "per layer, traced run"
	}
	fmt.Fprintf(w, "ledgerbench %s seed=%d seconds=%g (%s)\n", cfg.Workload, cfg.Seed, cfg.Seconds, mode)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "  %-42s %12s %12s\n", "span (self time per operation)", "ms/op", "calls/op")
		for _, l := range res.Layers {
			fmt.Fprintf(w, "  %-42s %12.4f %12.3f\n", l.Name, l.SelfMsPerOp, l.CallsPerOp)
		}
	}
	o := output{
		Correct:   len(res.Problems) == 0 && res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range set {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s is not a finite number", d.Name)
		}
		o.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if cfg.Trace {
			fmt.Fprintf(w, "  %-36s %16.6g %-6s -> %s\n", d.Name, v, d.Unit, d.Target)
		} else {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	if o.Attempted < 1 {
		o.Attempted = 1
		o.Correct = false
	}
	b, err := json.Marshal(o)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// finishSpans writes a traced run's spans under the output directory.
func finishSpans(cfg runConfig, rec *recorder, res *result) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.Workload, cfg.Seed))
	spans := rec.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	res.note("spans: %s (%d spans)", path, len(spans))
	return nil
}

// runSpread runs the workload n times in fresh processes and reports, per
// metric, the median and the quartile spread (Q3 − Q1)/median across the
// runs — the figure the benchmark's bounds are checked against.
func runSpread(workload string, seed int64, seconds float64, traced int, out string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced), "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		o, err := lastLine(stdout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !o.Correct || o.Failed != 0 {
			return fmt.Errorf("seed %d: incorrect run (failed %d of %d)\n%s", s, o.Failed, o.Attempted, stdout)
		}
		var parts []string
		for name, v := range o.Metrics {
			values[name] = append(values[name], v.Value)
			parts = append(parts, fmt.Sprintf("%s=%.6g", name, v.Value))
		}
		fmt.Printf("seed %d: %s\n", s, strings.Join(parts, " "))
	}
	set := endToEnd
	if traced == 1 {
		set = perLayer
	}
	fmt.Printf("%-36s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, d := range set {
		xs := values[d.Name]
		q1, q3, err := quartiles(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		sp, _ := spread(xs)
		fmt.Printf("%-36s %14.6g %14.6g %14.6g %7.2f%% %7.0f%%\n", d.Name, median(xs), q1, q3, 100*sp, 100*d.Bound)
	}
	return nil
}

// lastLine decodes the result object on the last line of a run's output.
func lastLine(stdout []byte) (*output, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	var o output
	if err := json.Unmarshal(last, &o); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &o, nil
}
