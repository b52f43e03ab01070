package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"unsafe"
)

// The reference kernel is a fixed piece of CPU work that belongs to the
// benchmark, not to the program: edit distances between 40 × 40 short
// strings drawn once from a constant seed, in preallocated rows, so it
// allocates nothing and does the same work in every run of every commit.
// Run right after each operation, its CPU time measures how fast the host
// is running this process at that moment. On a shared machine that speed
// moves by up to ~40 % between runs (other tenants on the same cores and
// caches), and an operation's CPU time moves with it; the ratio of the
// two does not. A change to the program moves the operation's CPU time
// and leaves the kernel's alone, so the ratio shows it in full.
const refStrings = 40

var ref = newRefKernel()

type refKernel struct {
	strs      []string
	prev, cur []int
	sink      int
}

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(0x5EED))
	k := &refKernel{}
	longest := 0
	for i := 0; i < refStrings; i++ {
		b := make([]byte, 8+rng.Intn(12))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		k.strs = append(k.strs, string(b))
		longest = max(longest, len(b))
	}
	k.prev = make([]int, longest+1)
	k.cur = make([]int, longest+1)
	return k
}

// run does the kernel's work once and returns the CPU time it took, in
// ms, by its own thread's clock: exact, and blind to whatever other
// threads of the process run meanwhile.
func (k *refKernel) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUMs()
	s := 0
	for _, a := range k.strs {
		for _, b := range k.strs {
			s += k.distance(a, b)
		}
	}
	k.sink = s
	return threadCPUMs() - c0
}

// threadCPUMs reads the calling thread's CPU clock, in ms.
func threadCPUMs() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	var r reading
	r.v = float64(ts.Nano()) / 1e6
	return r.v
}

// distance is the Levenshtein distance between a and b.
func (k *refKernel) distance(a, b string) int {
	prev, cur := k.prev[:len(b)+1], k.cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			c = min(c, prev[j]+1, cur[j-1]+1)
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// refWindow is how many neighbouring kernel runs on each side an
// operation's CPU time is divided by the median of: the host's speed
// drifts over seconds, while one kernel run can catch an interrupt.
const refWindow = 8

// inRefUnits divides each operation's CPU time by the median of the
// kernel runs within refWindow of it, giving its cost in kernel runs.
// cpu and ref are aligned: ref[i] was run right after operation i.
func inRefUnits(cpu, ref []float64) []float64 {
	out := make([]float64, len(cpu))
	win := make([]float64, 0, 2*refWindow+1)
	for i := range cpu {
		win = win[:0]
		for j := max(0, i-refWindow); j <= min(len(ref)-1, i+refWindow); j++ {
			win = append(win, ref[j])
		}
		out[i] = cpu[i] / median(win)
	}
	return out
}
