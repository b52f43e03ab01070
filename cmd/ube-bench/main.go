// Command ube-bench regenerates the tables and figures of the paper's
// evaluation (§7) and prints them as text tables. Absolute numbers differ
// from the paper (different hardware, language and synthetic BAMM
// substitute); the shapes — how time and quality move with universe size,
// selection bound, constraints and weights — are the reproduction target.
// See EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	ube-bench [-exp all|fig5|fig6|fig7|fig8|tab1|pcsa|perturb|solvers|uncoop|datasim|theta|trace|scale|churn] [-quick] [-evals 6000] [-seed 0]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.jsonl]
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"

	"ube/internal/asciiplot"
	"ube/internal/experiments"
	"ube/internal/schemaio"
	"ube/internal/trace"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: all, fig5, fig6, fig7, fig8, tab1, pcsa, perturb, solvers, uncoop, datasim, theta, trace, scale, churn")
		quick      = flag.Bool("quick", false, "scaled-down workload for smoke runs")
		evals      = flag.Int("evals", 0, "per-solve evaluation budget (0 = default)")
		seed       = flag.Int64("seed", 0, "experiment seed offset")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.BoolVar(&plotFigures, "plot", false, "draw ASCII charts for the figures")
	flag.StringVar(&csvDir, "csv", "", "also write each experiment's rows as CSV into this directory")
	flag.StringVar(&traceFile, "trace", "", "write the trace experiment's captured solve trace as JSONL to this file")
	flag.Parse()
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	o := experiments.Options{Quick: *quick, MaxEvals: *evals, Seed: *seed}
	err := run(*exp, o)

	// Flush profiles before reporting any experiment error, so a failed
	// run still leaves a usable profile behind.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fatal(ferr)
		}
		runtime.GC() // materialize only live allocations in the profile
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *memprofile)
	}
	if err != nil {
		fatal(err)
	}
}

// run dispatches one experiment (or all of them) under options o.
func run(exp string, o experiments.Options) error {
	runners := map[string]func(experiments.Options) error{
		"fig5":    runFig5,
		"fig6":    runFig6,
		"fig7":    runFig7,
		"fig8":    runFig8,
		"tab1":    runTable1,
		"pcsa":    runPCSA,
		"perturb": runPerturb,
		"solvers": runSolvers,
		"uncoop":  runUncoop,
		"datasim": runDataSim,
		"theta":   runTheta,
		"trace":   runTrace,
		"scale":   runScale,
		"churn":   runChurn,
	}
	names := []string{"fig5", "fig6", "fig7", "fig8", "tab1", "pcsa", "perturb", "solvers", "uncoop", "datasim", "theta", "trace", "scale", "churn"}

	if exp == "all" {
		for _, name := range names {
			if err := runners[name](o); err != nil {
				return err
			}
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want %s or all)", exp, strings.Join(names, ", "))
	}
	return r(o)
}

// plotFigures draws ASCII charts after each figure's table when set;
// csvDir, when set, receives one CSV file per experiment; traceFile,
// when set, receives the trace experiment's captured solve trace.
var (
	plotFigures bool
	csvDir      string
	traceFile   string
)

// writeCSV dumps one experiment's table as <csvDir>/<name>.csv.
func writeCSV(name string, header []string, rows [][]string) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	if err := w.WriteAll(rows); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

// plotSeries renders one multi-series chart when -plot is on.
func plotSeries(title, xlabel, ylabel string, xs []float64, series []asciiplot.Series) {
	if !plotFigures {
		return
	}
	p := &asciiplot.Plot{Title: title, XLabel: xlabel, YLabel: ylabel, X: xs, Series: series}
	out, err := p.Render()
	if err != nil {
		fmt.Fprintln(os.Stderr, "plot:", err)
		return
	}
	fmt.Println()
	fmt.Print(out)
}

// rowSeries converts TimeQualityRows to plot series per variant.
func rowSeries(rows []experiments.TimeQualityRow, pick func(experiments.TimeQualityRow, string) float64) ([]float64, []asciiplot.Series) {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = float64(r.X)
	}
	series := make([]asciiplot.Series, len(experiments.Variants))
	for vi, v := range experiments.Variants {
		ys := make([]float64, len(rows))
		for i, r := range rows {
			ys[i] = pick(r, v.Name)
		}
		series[vi] = asciiplot.Series{Name: v.Name, Y: ys}
	}
	return xs, series
}

// table prints rows under a header through one tabwriter.
func table(title string, header []string, rows [][]string) {
	fmt.Printf("\n=== %s ===\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
}

func variantNames() []string {
	names := make([]string, len(experiments.Variants))
	for i, v := range experiments.Variants {
		names[i] = v.Name
	}
	return names
}

func runFig5(o experiments.Options) error {
	rows, err := experiments.Fig5(o)
	if err != nil {
		return err
	}
	names := variantNames()
	header := append([]string{"universe size"}, names...)
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := []string{fmt.Sprint(r.X)}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.2fs", r.Seconds[n]))
		}
		out[i] = cells
	}
	table("Figure 5: time to choose sources vs universe size (columns = constraint variants)", header, out)
	writeCSV("fig5", header, out)
	xs, series := rowSeries(rows, func(r experiments.TimeQualityRow, v string) float64 { return r.Seconds[v] })
	plotSeries("Figure 5", "universe size", "seconds", xs, series)
	return nil
}

func runFig6(o experiments.Options) error {
	rows, err := experiments.Fig6And7(o)
	if err != nil {
		return err
	}
	names := variantNames()
	header := append([]string{"sources to choose"}, names...)
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := []string{fmt.Sprint(r.X)}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.2fs", r.Seconds[n]))
		}
		out[i] = cells
	}
	table("Figure 6: time vs number of sources to choose (columns = constraint variants)", header, out)
	writeCSV("fig6", header, out)
	xs, series := rowSeries(rows, func(r experiments.TimeQualityRow, v string) float64 { return r.Seconds[v] })
	plotSeries("Figure 6", "sources to choose", "seconds", xs, series)
	return nil
}

func runFig7(o experiments.Options) error {
	rows, err := experiments.Fig6And7(o)
	if err != nil {
		return err
	}
	names := variantNames()
	header := append([]string{"sources to choose"}, names...)
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := []string{fmt.Sprint(r.X)}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.4f", r.Quality[n]))
		}
		out[i] = cells
	}
	table("Figure 7: overall quality vs number of sources to choose (columns = constraint variants)", header, out)
	writeCSV("fig7", header, out)
	xs, series := rowSeries(rows, func(r experiments.TimeQualityRow, v string) float64 { return r.Quality[v] })
	plotSeries("Figure 7", "sources to choose", "Q(S)", xs, series)
	return nil
}

func runFig8(o experiments.Options) error {
	rows, err := experiments.Fig8(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%.1f", r.Weight),
			fmt.Sprintf("%.4f", r.Card),
			fmt.Sprintf("%.4f", r.Quality),
		}
	}
	table("Figure 8: solution cardinality vs weight on the Card QEF",
		[]string{"w_card", "Card(S)", "Q(S)"}, out)
	writeCSV("fig8", []string{"w_card", "Card(S)", "Q(S)"}, out)
	xs := make([]float64, len(rows))
	ys := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.Weight
		ys[i] = r.Card
	}
	plotSeries("Figure 8", "w_card", "Card(S)", xs, []asciiplot.Series{{Name: "Card(S)", Y: ys}})
	return nil
}

func runTable1(o experiments.Options) error {
	rows, err := experiments.Table1(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.M), fmt.Sprint(r.Selected), fmt.Sprint(r.TrueGAs),
			fmt.Sprint(r.Attrs), fmt.Sprint(r.Missed), fmt.Sprint(r.False), fmt.Sprint(r.Junk),
		}
	}
	table("Table 1: quality of GAs (200-source universe, no constraints)",
		[]string{"m", "sources selected", "true GAs selected", "attrs in true GAs", "true GAs missed", "false GAs", "junk GAs"}, out)
	writeCSV("tab1", []string{"m", "sources_selected", "true_gas", "attrs_in_true_gas", "missed", "false", "junk"}, out)
	return nil
}

func runPCSA(o experiments.Options) error {
	res, err := experiments.PCSAAccuracy(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{
			fmt.Sprint(r.Sources),
			fmt.Sprintf("%.0f", r.Estimate),
			fmt.Sprint(r.Exact),
			fmt.Sprintf("%.2f%%", r.ErrPct),
		}
	}
	table("PCSA union-cardinality accuracy (§7.3)",
		[]string{"|S|", "estimate", "exact", "error"}, out)
	writeCSV("pcsa", []string{"sources", "estimate", "exact", "error_pct"}, out)
	fmt.Printf("worst-case error: %.2f%% (paper reports 7%%)\n", res.WorstErrPct)
	fmt.Printf("signature memory: %.1f KiB across all sources\n", float64(res.SignatureBytes)/1024)
	return nil
}

func runPerturb(o experiments.Options) error {
	trials := 20
	if o.Quick {
		trials = 5
	}
	res, err := experiments.WeightPerturbation(o, trials)
	if err != nil {
		return err
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{fmt.Sprint(r.Trial), fmt.Sprint(r.SourcesChanged), fmt.Sprint(r.GAsChanged)}
	}
	table("Weight sensitivity: ±15% random weight perturbation (§7.4)",
		[]string{"trial", "sources changed", "GAs changed"}, out)
	writeCSV("perturb", []string{"trial", "sources_changed", "gas_changed"}, out)
	fmt.Printf("worst case: %d sources, %d GAs changed (paper: sources rarely change, ≤1 GA)\n",
		res.MaxSourcesChanged, res.MaxGAsChanged)
	return nil
}

func runSolvers(o experiments.Options) error {
	seeds := 3
	if o.Quick {
		seeds = 1
	}
	rows, err := experiments.SolverComparison(o, seeds)
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Quality > rows[j].Quality })
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Name,
			fmt.Sprintf("%.4f", r.Quality),
			fmt.Sprintf("%.2fs", r.Seconds),
			fmt.Sprintf("%d/%d", r.Feasible, r.Seeds),
		}
	}
	table("Optimizer comparison under a shared evaluation budget (§6)",
		[]string{"solver", "mean quality", "mean time", "feasible"}, out)
	writeCSV("solvers", []string{"solver", "mean_quality", "mean_time_s", "feasible"}, out)
	return nil
}

func runUncoop(o experiments.Options) error {
	rows, err := experiments.Uncooperative(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%.0f%%", r.Fraction*100),
			fmt.Sprintf("%.4f", r.Quality),
			fmt.Sprintf("%.4f", r.TrueCoverage),
			fmt.Sprintf("%d/%d", r.UncoopSelected, r.Selected),
		}
	}
	table("Uncooperative sources: quality and true coverage vs signature availability (§4)",
		[]string{"uncooperative", "Q(S)", "true coverage", "uncoop selected"}, out)
	writeCSV("uncoop", []string{"uncoop_fraction", "quality", "true_coverage", "uncoop_selected"}, out)
	return nil
}

func runDataSim(o experiments.Options) error {
	rows, err := experiments.DataSim(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.M),
			fmt.Sprintf("%d / %d", r.NameTrueGAs, r.DataTrueGAs),
			fmt.Sprintf("%d / %d", r.NameAttrs, r.DataAttrs),
			fmt.Sprintf("%d / %d", r.NameMissed, r.DataMissed),
			fmt.Sprint(r.DataFalse),
		}
	}
	table("Data-based matching: 3-gram names vs value-overlap hybrid (§3 extension; cells are name / data)",
		[]string{"m", "true GAs", "attrs in true GAs", "missed", "false (data)"}, out)
	writeCSV("datasim", []string{"m", "true_gas_name_data", "attrs_name_data", "missed_name_data", "false_data"}, out)
	return nil
}

func runTheta(o experiments.Options) error {
	rows, err := experiments.ThetaSweep(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%.2f", r.Theta),
			fmt.Sprint(r.TrueGAs), fmt.Sprint(r.Attrs),
			fmt.Sprint(r.Missed), fmt.Sprint(r.False),
			fmt.Sprintf("%.4f", r.Quality),
		}
	}
	table("Matching threshold sensitivity: θ sweep around the paper's 0.65",
		[]string{"theta", "true GAs", "attrs in true GAs", "missed", "false GAs", "Q(S)"}, out)
	writeCSV("theta", []string{"theta", "true_gas", "attrs", "missed", "false", "quality"}, out)
	return nil
}

// traceSnapshot is the BENCH_trace.json schema: the run's options plus
// the overhead measurement and the captured trace's counter totals.
type traceSnapshot struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	MaxEvals   int    `json:"max_evals"`
	Seed       int64  `json:"seed"`
	*experiments.TraceResult
}

func runTrace(o experiments.Options) error {
	res, err := experiments.TraceOverhead(o)
	if err != nil {
		return err
	}
	out := [][]string{{
		fmt.Sprint(res.M),
		fmt.Sprintf("%.3fs", res.DisabledSeconds),
		fmt.Sprintf("%.3fs", res.EnabledSeconds),
		fmt.Sprintf("%.2f%%", res.OverheadPct),
		fmt.Sprint(res.Spans),
		fmt.Sprint(res.SameSources),
	}}
	header := []string{"m", "disabled", "enabled", "overhead", "spans", "same sources"}
	table("Solve tracing overhead (golden Fig 6 cell, min of runs)", header, out)
	writeCSV("trace", header, out)

	fmt.Println()
	if err := trace.RenderTable(os.Stdout, res.Trace, 5); err != nil {
		return err
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := schemaio.EncodeTrace(f, res.Trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", traceFile)
	}

	snap := traceSnapshot{
		Experiment:  "trace",
		Quick:       o.Quick,
		MaxEvals:    o.MaxEvals,
		Seed:        o.Seed,
		TraceResult: res,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_trace.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_trace.json")
	return nil
}

// scaleSnapshot is the BENCH_scale.json schema: the run's options plus
// the sweep rows and the dense-vs-sparse parity checks.
type scaleSnapshot struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	MaxEvals   int    `json:"max_evals"`
	Seed       int64  `json:"seed"`
	*experiments.ScaleResult
}

func runScale(o experiments.Options) error {
	res, err := experiments.Scale(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{
			fmt.Sprint(r.U),
			fmt.Sprint(r.Vocab),
			fmt.Sprint(r.QuadraticPairs),
			fmt.Sprint(r.BlockCandidates),
			fmt.Sprintf("%.3f%%", r.CandidateSharePct),
			fmt.Sprint(r.ClusterPairs),
			fmt.Sprint(r.BoundSkips),
			fmt.Sprintf("%.2fs", r.SolveSeconds),
			fmt.Sprintf("%.4f", r.Quality),
		}
	}
	header := []string{"U", "vocab", "n^2 pairs", "block cand", "cand share", "cluster pairs", "bound skips", "solve", "Q(S)"}
	table("Scale: blocking-index sparse path on large universes", header, out)
	writeCSV("scale", header, out)

	pout := make([][]string, len(res.Parity))
	for i, r := range res.Parity {
		pout[i] = []string{
			fmt.Sprint(r.U),
			fmt.Sprint(r.SameSources),
			fmt.Sprintf("%.6f", r.QualityDense),
			fmt.Sprintf("%.6f", r.QualitySparse),
			fmt.Sprintf("%.4f%%", r.GapPct),
		}
	}
	table("Scale parity: dense matrix vs sparse blocking path (same universe, same problem)",
		[]string{"U", "same sources", "Q dense", "Q sparse", "gap"}, pout)

	snap := scaleSnapshot{
		Experiment:  "scale",
		Quick:       o.Quick,
		MaxEvals:    o.MaxEvals,
		Seed:        o.Seed,
		ScaleResult: res,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_scale.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_scale.json")
	return nil
}

// churnSnapshot is the BENCH_churn.json schema: the run's options plus
// the warm-vs-fresh sweep rows.
type churnSnapshot struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	MaxEvals   int    `json:"max_evals"`
	Seed       int64  `json:"seed"`
	*experiments.ChurnResult
}

func runChurn(o experiments.Options) error {
	res, err := experiments.Churn(o)
	if err != nil {
		return err
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = []string{
			fmt.Sprint(r.U),
			fmt.Sprint(r.Batches),
			fmt.Sprint(r.Mutations),
			fmt.Sprintf("%.3fs", r.WarmSeconds),
			fmt.Sprintf("%.3fs", r.FreshSeconds),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.2gs", r.MaintainSeconds),
			fmt.Sprintf("%.2gs", r.RebuildSeconds),
			fmt.Sprint(r.SameSolutions),
			fmt.Sprintf("%.4f", r.Quality),
		}
	}
	header := []string{"U", "batches", "mutations", "warm", "fresh rebuild", "speedup", "maintain", "rebuild", "same solutions", "Q(S)"}
	table("Churn: incremental re-solve vs rebuild-from-scratch after universe mutation", header, out)
	writeCSV("churn", header, out)

	snap := churnSnapshot{
		Experiment:  "churn",
		Quick:       o.Quick,
		MaxEvals:    o.MaxEvals,
		Seed:        o.Seed,
		ChurnResult: res,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_churn.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_churn.json")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ube-bench:", err)
	os.Exit(1)
}
