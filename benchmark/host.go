package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metaprep/internal/stats"
)

// cpuTime returns this process's user+sys CPU time (all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark of this process.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS makes VmHWM restart from the current resident set (Linux
// clear_refs, value 5), so that the next reading is the peak since now and
// not since process start. Where the kernel refuses, readings stay
// process-wide and the caller's median over slices degrades to the run's
// high-water mark.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

var spinSink uint64

// spinMs times a fixed integer loop that touches no memory: a yardstick for
// the core's current speed, so a reader can tell a machine shift from a code
// change. Never used to normalise another metric.
func spinMs(quick bool) float64 {
	n := 1 << 25
	if quick {
		n = 1 << 20
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(t0))
}

// triadGBps measures memory bandwidth over 3 × 32 MiB arrays. Its arrays
// would raise VmHWM, so only traced runs (which report no peak RSS) call it.
func triadGBps(quick bool) float64 {
	n := 4 << 20
	if quick {
		n = 1 << 16
	}
	return stats.StreamTriad(n, 2) / 1e9
}
