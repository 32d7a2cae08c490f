//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Clock identifiers of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuNow returns the CPU time the process has consumed so far, user and
// system, on all its threads, to the nanosecond. Unlike the wall clock it
// does not advance while the hypervisor runs another guest on this one's
// processors, which on a shared host can double any elapsed time.
func cpuNow() time.Duration { return clock(clockProcessCPU) }

// threadCPUNow returns the CPU time of the calling thread alone; the
// caller holds runtime.LockOSThread between two readings.
func threadCPUNow() time.Duration { return clock(clockThreadCPU) }

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("benchmark: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
