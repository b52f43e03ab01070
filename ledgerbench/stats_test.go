package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestQuantileSampleGuard(t *testing.T) {
	if _, err := quantile(seq(199), 0.95, 10); err == nil {
		t.Fatal("p95 over 199 samples has 9 beyond it; want a refusal")
	}
	got, err := quantile(seq(200), 0.95, 10)
	if err != nil {
		t.Fatalf("p95 over 200 samples: %v", err)
	}
	if got != 190 {
		t.Fatalf("p95 of 1..200 by nearest rank = %v, want 190", got)
	}
	if got, err := quantile(seq(5), 0.5, 2); err != nil || got != 3 {
		t.Fatalf("median of 1..5 = %v, %v; want 3", got, err)
	}
	if _, err := quantile(nil, 0.5, 0); err == nil {
		t.Fatal("quantile of no samples must fail")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, err)
	}
	// statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]: the
	// exclusive method extrapolates past the data.
	q1, q3, err = quartiles([]float64{3, 1})
	if err != nil || q1 != 0.5 || q3 != 3.5 {
		t.Fatalf("quartiles(1, 3) = %v, %v, %v; want 0.5, 3.5", q1, q3, err)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("quartiles of one value must fail")
	}
	sp, err := spread(seq(10))
	if err != nil || math.Abs(sp-5.5/5.5) > 1e-12 {
		t.Fatalf("spread(1..10) = %v, %v; want (8.25-2.75)/5.5 = 1", sp, err)
	}
}

func TestShareGuard(t *testing.T) {
	if _, err := share(1, 5, 10); err == nil {
		t.Fatal("share over 5 events with a minimum of 10 must fail")
	}
	if got, err := share(3, 12, 10); err != nil || got != 0.25 {
		t.Fatalf("share(3, 12) = %v, %v", got, err)
	}
}

func TestInRefUnits(t *testing.T) {
	// Each operation is divided by the median kernel run within
	// refWindow of it: early operations see only the fast runs, late ones
	// only the slow runs.
	n := 4 * refWindow
	cpu := make([]float64, n)
	refs := make([]float64, n)
	for i := range cpu {
		cpu[i] = 12
		refs[i] = 2
		if i >= n/2 {
			refs[i] = 3
		}
	}
	refs[1] = 100 // one run caught by an interrupt does not move its neighbours
	got := inRefUnits(cpu, refs)
	if got[0] != 6 || got[2] != 6 || got[n-1] != 4 {
		t.Fatalf("cost of first, third and last operation = %v, %v, %v; want 6, 6, 4", got[0], got[2], got[n-1])
	}
}

func TestRefKernelIsFixedAndAllocationFree(t *testing.T) {
	k := newRefKernel()
	if allocs := testing.AllocsPerRun(3, func() { k.run() }); allocs != 0 {
		t.Fatalf("reference kernel allocates %v times per run", allocs)
	}
	other := newRefKernel()
	other.run()
	if other.sink != k.sink {
		t.Fatalf("two kernels did different work: checksums %d and %d", k.sink, other.sink)
	}
	if ms := k.run(); ms <= 0 {
		t.Fatalf("kernel run took %v ms of CPU time", ms)
	}
}
