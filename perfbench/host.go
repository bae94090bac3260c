package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU returns the CPU time (user + system) this process has used,
// at microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pidCPU returns the CPU time (user + system) another process has used,
// summed over all its threads, at nanosecond resolution: it reads the
// process's CPU-time clock, the same account getrusage reads for this
// process.
func pidCPU(pid int) (time.Duration, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) in the kernel's
	// posix-timers.h.
	clock := uintptr((^pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuStat is the machine-wide "cpu" line of /proc/stat: steal ticks and
// the ticks the vCPUs were busy, steal included (all states but idle
// and iowait).
type cpuStat struct{ steal, busy uint64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			st.steal = n
			st.busy += n
		case 8, 9: // guest and guest_nice are already counted in user and nice
		default:
			st.busy += n
		}
	}
	return st
}

// stealSince returns the share of busy vCPU time the hypervisor stole
// since the reading before.
func stealSince(before cpuStat) float64 {
	now := readCPUStat()
	return window{steal: now.steal - before.steal, busy: now.busy - before.busy}.share()
}

// unstolen scales a wall time to the time the same work takes when the
// hypervisor steals nothing, given the steal share of busy vCPU time:
// each vCPU the work keeps busy loses that share of the wall time.
// Process CPU time already excludes steal; wall time does not.
func unstolen(wall, steal float64) float64 { return wall * (1 - steal) }

// windowMin is the shortest window whose steal share /proc/stat's
// 10 ms ticks resolve to about a percent.
const windowMin = 500 * time.Millisecond

// window is a stretch of a phase's own time and the steal in it.
type window struct {
	steal, busy uint64
	spent       time.Duration
}

// share is the stolen fraction of the busy vCPU time in the window: the
// fraction of each wall-clock second a vCPU that had work did not run
// it. Relative to all vCPU time, idle included, steal would read about
// half as large when one of two vCPUs is busy, as in a closed loop on
// one connection.
func (w window) share() float64 {
	if w.busy == 0 {
		return 0
	}
	return float64(w.steal) / float64(w.busy)
}

// windows cuts the steps of a phase into windows of at least windowMin
// of the phase's own time. Grid metrics are read per window and
// corrected for the window's steal; every phase prints the steal its
// windows saw. Interleaving spreads a phase's windows over the whole
// run.
type windows struct {
	open   window
	closed []window
}

// add accounts one step that ran for d between two /proc/stat reads,
// closing the window once it is long enough.
func (w *windows) add(before, after cpuStat, d time.Duration) {
	w.open.steal += after.steal - before.steal
	w.open.busy += after.busy - before.busy
	w.open.spent += d
	if w.open.spent >= windowMin {
		w.closed = append(w.closed, w.open)
		w.open = window{}
	}
}

// cur is the index of the open window: a step's samples belong to it.
func (w *windows) cur() int { return len(w.closed) }

// finish closes the last window. One shorter than half the minimum is
// folded into the window before it, so no window rests on a step or
// two; index maps a sample's cur to the window it ended up in.
func (w *windows) finish() {
	switch {
	case w.open.spent == 0:
	case w.open.spent < windowMin/2 && len(w.closed) > 0:
		last := &w.closed[len(w.closed)-1]
		last.steal += w.open.steal
		last.busy += w.open.busy
		last.spent += w.open.spent
	default:
		w.closed = append(w.closed, w.open)
	}
	w.open = window{}
}

func (w *windows) index(cur int) int { return min(cur, len(w.closed)-1) }

// meanSteal is the steal share over all the phase's windows.
func (w *windows) meanSteal() float64 {
	var all window
	for _, x := range w.closed {
		all.steal += x.steal
		all.busy += x.busy
	}
	return all.share()
}

// hostMeter records how much of a window the hypervisor stole and how
// much CPU the benchmark (and its child daemon) used, so a noisy run
// can be told apart from a slow program.
type hostMeter struct {
	wall  time.Time
	stat  cpuStat
	cpu   time.Duration
	child time.Duration // CPU of child processes measured in the window
}

func startHost() *hostMeter {
	return &hostMeter{wall: time.Now(), stat: readCPUStat(), cpu: selfCPU()}
}

// addChild accounts CPU a child process used inside the window.
func (h *hostMeter) addChild(d time.Duration) { h.child += d }

// stealPct is the share of busy vCPU time the hypervisor stole since
// the meter started, in percent.
func (h *hostMeter) stealPct() float64 { return 100 * stealSince(h.stat) }

// cpuWallRatio is the CPU the benchmark and its child used per second
// of wall time since the meter started.
func (h *hostMeter) cpuWallRatio() float64 {
	wall := time.Since(h.wall)
	return float64(selfCPU()-h.cpu+h.child) / float64(wall)
}
