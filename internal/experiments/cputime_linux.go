package experiments

import (
	"syscall"
	"time"
	"unsafe"
)

// threadClock reads the calling thread's CPU clock. A Workers 1 solve
// timed by it on a locked thread counts the solve's own work and none of
// what runs beside it on the machine.
func threadClock() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}
