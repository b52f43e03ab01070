//go:build !linux

package experiments

import "time"

// wallAnchor anchors threadClock's monotonic readings.
var wallAnchor = time.Now()

// threadClock falls back to the wall clock where no thread CPU clock is
// read: timings then include whatever else runs on the machine.
func threadClock() time.Duration { return time.Since(wallAnchor) }
