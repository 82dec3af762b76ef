package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment records where the numbers were taken, so two documents can
// be told apart before they are compared.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Noisy marks a run whose numbers are still printed but should not
	// be trusted: the 1-minute load average exceeded the CPU count, or
	// some workload's slowest repetition took over 1.25x its fastest.
	Noisy bool `json:"noisy"`
}

// setProcs applies the harness's scheduling rule: one P. Every simulation
// is logically single-threaded, and with a second P the goroutine
// hand-offs of the Proc engine become cross-thread futex wake-ups, which
// on a small virtual machine are both slower and far noisier (fig_grid on
// the 2-core sandbox: 3.6 s per repetition with 17 % run-to-run spread at
// two Ps, 2.6 s with 8 % at one). With one P the collector's work is part
// of wall_s instead of hiding on another core.
func setProcs() { runtime.GOMAXPROCS(1) }

func captureEnv() environment {
	e := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown", LoadStart: load1(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "+dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// finish takes the closing load average and decides Noisy.
func (e *environment) finish(reports []*report) {
	e.LoadEnd = load1()
	e.Noisy = max(e.LoadStart, e.LoadEnd) > float64(e.NProc)
	for _, r := range reports {
		for _, m := range r.Metrics {
			if m.Name == "wall_s" && m.Max > 1.25*m.Min {
				e.Noisy = true
			}
		}
	}
}

// load1 is the 1-minute load average, or 0 where /proc does not say.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // unparsable reads as 0: no load information
	return v
}
