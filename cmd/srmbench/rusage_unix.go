//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// maxRSSMiB returns the process's peak resident set so far, in MiB
// (getrusage(RUSAGE_SELF)'s ru_maxrss: KiB on Linux, bytes on Darwin).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / (1 << 10)
}
