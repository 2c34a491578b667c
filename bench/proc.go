package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSelf is the /proc directory of this process; the tests point the
// helpers below at a stand-in directory instead.
const procSelf = "/proc/self"

// errRSSUnavailable reports that the kernel gives no resettable peak RSS.
var errRSSUnavailable = errors.New("peak RSS unavailable")

// resetPeakRSS sets the process's peak resident set size (VmHWM) back to
// its current RSS by writing "5" to clear_refs (Linux 4.0 and later).
func resetPeakRSS(proc string) error {
	f, err := os.OpenFile(filepath.Join(proc, "clear_refs"), os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("%w: %v", errRSSUnavailable, err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("%w: %v", errRSSUnavailable, err)
	}
	return f.Close()
}

// peakRSSMB reads VmHWM, the peak resident set size since the last
// reset, in MB (10^6 bytes).
func peakRSSMB(proc string) (float64, error) {
	f, err := os.Open(filepath.Join(proc, "status"))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errRSSUnavailable, err)
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
			return 0, fmt.Errorf("%w: VmHWM %q: %v", errRSSUnavailable, rest, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", errRSSUnavailable, err)
	}
	return 0, fmt.Errorf("%w: no VmHWM line", errRSSUnavailable)
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only for a bad pointer or an unknown who.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
