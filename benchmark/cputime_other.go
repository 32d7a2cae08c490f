//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuNow falls back to the wall clock where the process CPU clock of
// Linux is not available: single-threaded work reads the same on an idle
// host, parallel work reads lower.
func cpuNow() time.Duration { return time.Since(processStart) }

func threadCPUNow() time.Duration { return time.Since(processStart) }
