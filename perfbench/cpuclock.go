package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time all of the process's threads have run so
// far, to the nanosecond. The end-to-end metrics are timed with it
// rather than with wall time: on a shared host, wall time also counts
// the time the host gives the process's CPUs to other guests (steal)
// and the time the program's threads wait for a free CPU, so it
// measures the neighbours as much as the program. The workloads do no
// I/O and never block, so CPU time leaves out no waiting of the
// program's own.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if e != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}
