package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is what one phase of a run produced.
type phase struct {
	name string
	// metrics are the end-to-end metrics the phase owns (untraced) or
	// its per-layer metrics (traced).
	metrics map[string]metric
	// cpuPerOp (ms) and allocPerOp (kB) are the phase's cost per op;
	// the workload whose own phase this is reports them as
	// cpu_ms_per_op and alloc_kb_per_op.
	cpuPerOp, allocPerOp float64
	attempted, failed    int
	// problems are failed output checks, one line each.
	problems []string
	// notes are printed beside the metrics: raw wall-clock figures and
	// the steal they were corrected for.
	notes []string

	// Accumulated over the phase's steps by measure.
	cpu   time.Duration
	bytes float64
	win   windows
}

func newPhase(name string) *phase { return &phase{name: name, metrics: map[string]metric{}} }

func (p *phase) set(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

func (p *phase) note(format string, args ...any) {
	p.notes = append(p.notes, p.name+": "+fmt.Sprintf(format, args...))
}

// check records one output check of an op.
func (p *phase) check(ok bool, format string, args ...any) bool {
	if !ok && len(p.problems) < 20 {
		p.problems = append(p.problems, p.name+": "+fmt.Sprintf(format, args...))
	}
	return ok
}

// fail counts an op as failed after its checks or its call failed.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	p.check(false, format, args...)
}

// allocMeter brackets a section with runtime.MemStats readings. The
// reads stop the world, so they stay outside timed regions.
type allocMeter struct{ bytes, mallocs uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, ms.Mallocs}
}

// since returns the bytes and allocations made since the meter started.
func (a allocMeter) since() (bytes, mallocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc - a.bytes), float64(ms.Mallocs - a.mallocs)
}

// measure runs one step of the phase, adding its process CPU time,
// allocation and steal to the phase's totals.
func (p *phase) measure(step func()) {
	c0, a, st, t0 := selfCPU(), startAlloc(), readCPUStat(), time.Now()
	step()
	p.win.add(st, readCPUStat(), time.Since(t0))
	bytes, _ := a.since()
	p.bytes += bytes
	p.cpu += selfCPU() - c0
}

// stepper is a phase advanced one unit of work at a time, so the
// phases of a run can interleave and each samples the host over the
// whole run.
type stepper interface {
	// step does one unit: a grid batch, a burst of requests, one
	// verification.
	step(ctx context.Context)
	// done counts the units done; more reports whether the phase can
	// take another.
	done() int
	more() bool
	// finish checks what is left to check, derives the metrics and
	// returns the phase.
	finish(ctx context.Context) *phase
}
