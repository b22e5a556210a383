package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// processCPU returns the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB returns the process's peak resident set size in MiB
// (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// userHz is the kernel's clock-tick rate for /proc/stat (USER_HZ, fixed
// at 100 on Linux for every architecture the program supports).
const userHz = 100

// stealSeconds reads the machine-wide stolen CPU time from /proc/stat;
// ok is false where the file or its steal column is unavailable.
func stealSeconds() (float64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / userHz, true
}

// hostWindow records how busy the machine was around a run: the steal
// delta says whether the hypervisor took CPU away, the process CPU time
// what the run itself used. Neither is a gate; they let a reader tell a
// noisy window from a regression.
type hostWindow struct {
	steal0  float64
	stealOK bool
}

func openHostWindow() hostWindow {
	s, ok := stealSeconds()
	return hostWindow{steal0: s, stealOK: ok}
}

// close returns the steal delta over the window (-1 when unknown) and
// the process CPU time so far.
func (h hostWindow) close() (steal, cpu float64) {
	steal = -1
	if s, ok := stealSeconds(); ok && h.stealOK {
		steal = s - h.steal0
	}
	return steal, processCPU()
}
