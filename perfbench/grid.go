package main

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"time"

	"ooc/internal/core"
	"ooc/internal/eval"
	"ooc/internal/sim"
	"ooc/internal/usecases"
)

// gridKCLBound bounds a report's KCL residual relative to the design's
// inlet pump flow.
const gridKCLBound = 1e-9

// reportBytes encodes the numbers of a validation report at full
// precision, so two reports compare byte for byte.
func reportBytes(rep *sim.Report) []byte {
	b := []byte(rep.Design.Name)
	f := func(v float64) { b = strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64) }
	for _, m := range rep.Modules {
		f(float64(m.ActualFlow))
		f(m.FlowDeviation)
		f(m.ActualPerfusion)
		f(float64(m.ActualShear))
	}
	f(float64(rep.PumpPressure))
	f(float64(rep.KCLResidual))
	return b
}

// checkGridReport checks the report of one grid instance.
func checkGridReport(p *phase, in usecases.Instance, rep *sim.Report) bool {
	if !p.check(rep != nil, "%s: no report", in.Label()) {
		return false
	}
	inlet := float64(rep.Design.Pumps.Inlet)
	ok := p.check(len(rep.Modules) == len(in.Spec.Modules), "%s: %d module results for %d modules", in.Label(), len(rep.Modules), len(in.Spec.Modules))
	ok = p.check(math.Abs(float64(rep.KCLResidual)) <= gridKCLBound*inlet,
		"%s: KCL residual %g m³/s exceeds %g of the inlet flow", in.Label(), float64(rep.KCLResidual), gridKCLBound) && ok
	return ok
}

// gridRun is batch design-space exploration: batches of the drawn
// design points go through eval.Grid on the exact model with one
// worker per CPU, the way oocbench evaluates Table I.
type gridRun struct {
	p       *phase
	in      *inputs
	tr      *tracer
	opt     sim.Options
	workers int
	batches []batchTime
}

// batchTime is one eval.Grid call: its window, size, wall-clock and
// CPU time.
type batchTime struct {
	window    int
	designs   int
	wall, cpu time.Duration
}

func newGrid(in *inputs, tr *tracer) *gridRun {
	opt := sim.DefaultOptions()
	opt.Model = sim.ModelExact
	return &gridRun{p: newPhase("grid"), in: in, tr: tr, opt: opt, workers: runtime.NumCPU()}
}

func (g *gridRun) done() int  { return len(g.batches) }
func (g *gridRun) more() bool { return true }

func (g *gridRun) step(ctx context.Context) {
	p := g.p
	lo := (len(g.batches) * gridBatch) % len(g.in.grid)
	insts := g.in.grid[lo : lo+gridBatch]
	b := batchTime{window: p.win.cur(), designs: len(insts)}
	var reps []*sim.Report
	var err error
	cpu := p.cpu
	p.measure(func() {
		id := g.tr.begin("grid", 0, 0)
		t0 := time.Now()
		reps, err = eval.Grid(ctx, insts, g.workers, g.opt)
		b.wall = time.Since(t0)
		g.tr.end(id)
	})
	b.cpu = p.cpu - cpu
	g.batches = append(g.batches, b)
	p.attempted += len(insts)
	if err != nil {
		p.check(false, "grid: %v", err)
	}
	for i, rep := range reps {
		if !checkGridReport(p, insts[i], rep) {
			p.failed++
		}
	}
}

func (g *gridRun) finish(ctx context.Context) *phase {
	p, tr, opt := g.p, g.tr, g.opt
	p.win.finish()
	p.allocPerOp = p.bytes / 1024 / float64(p.attempted)
	// Per window: throughput with steal removed — the workers run
	// independently, so it scales with the unstolen share of each
	// vCPU — and CPU per design. The run reports the medians over its
	// windows (see README.md).
	type agg struct {
		designs   int
		wall, cpu time.Duration
	}
	byWindow := make([]agg, len(p.win.closed))
	var all agg
	for _, b := range g.batches {
		w := &byWindow[p.win.index(b.window)]
		w.designs += b.designs
		w.wall += b.wall
		w.cpu += b.cpu
		all.designs += b.designs
		all.wall += b.wall
	}
	var rates, cpus []float64
	for i, w := range byWindow {
		if w.designs == 0 {
			continue
		}
		rates = append(rates, float64(w.designs)/w.wall.Seconds()/(1-p.win.closed[i].share()))
		cpus = append(cpus, w.cpu.Seconds()*1e3/float64(w.designs))
	}
	p.cpuPerOp = median(cpus)
	p.note("%.6g designs/s wall-clock over the phase, %.2f%% stolen, %d windows (upper quartile %.6g with steal removed; CPU lower quartile %.4g ms)",
		float64(all.designs)/all.wall.Seconds(), 100*p.win.meanSteal(), len(rates), quantile(rates, 0.75), quantile(cpus, 0.25))
	if !tr.on {
		p.set("designs_per_s", median(rates), "1/s")
	}

	// The serial pass re-evaluates the first batch one design at a
	// time; its reports must equal eval.Grid's byte for byte. Traced,
	// it is also where the core and sim spans come from.
	insts := g.in.grid[:gridBatch]
	reps, _ := eval.Grid(ctx, insts, g.workers, opt)
	var serial time.Duration
	var iterations float64
	for i, inst := range insts {
		op := i + 1
		root := tr.begin("design", 0, op)
		if tr.on {
			id := tr.begin("derive", root, op)
			_, err := core.Derive(inst.Spec)
			tr.end(id)
			if err != nil {
				p.check(false, "%s: derive: %v", inst.Label(), err)
			}
		}
		t0 := time.Now()
		id := tr.begin("generate", root, op)
		d, err := core.GenerateContext(ctx, inst.Spec)
		tr.end(id)
		if err != nil {
			p.check(false, "%s: generate: %v", inst.Label(), err)
			tr.end(root)
			continue
		}
		iterations += float64(d.Iterations)
		id = tr.begin("validate.exact", root, op)
		rep, err := sim.ValidateContext(ctx, d, opt)
		tr.end(id)
		serial += time.Since(t0)
		tr.end(root)
		if err != nil {
			p.check(false, "%s: validate: %v", inst.Label(), err)
			continue
		}
		if reps[i] != nil {
			p.check(string(reportBytes(rep)) == string(reportBytes(reps[i])),
				"%s: serial report differs from eval.Grid's", inst.Label())
		}
	}
	if !tr.on {
		return p
	}

	n := float64(len(insts))
	p.set("core.derive_us", median(tr.durations("derive"))/1e3, "us")
	p.set("core.generate_us", median(tr.durations("generate"))/1e3, "us")
	p.set("sim.validate_exact_us", median(tr.durations("validate.exact"))/1e3, "us")
	p.set("core.realize_iterations", iterations/n, "count")
	// Summed serial time per design over the pool's time per design.
	var batchRates []float64
	for _, b := range g.batches {
		batchRates = append(batchRates, float64(b.designs)/b.wall.Seconds())
	}
	p.set("eval.pool_efficiency", serial.Seconds()/n*median(batchRates)/float64(g.workers), "ratio")

	// Allocation counts come from untimed serial loops, one layer each.
	ds := make([]*core.Design, 0, len(insts))
	a := startAlloc()
	for _, inst := range insts {
		if d, err := core.GenerateContext(ctx, inst.Spec); err == nil {
			ds = append(ds, d)
		}
	}
	bytes, mallocs := a.since()
	p.set("core.generate_allocs", mallocs/float64(len(ds)), "count")
	p.set("core.generate_kb", bytes/1024/float64(len(ds)), "kB")
	a = startAlloc()
	for _, d := range ds {
		_, _ = sim.ValidateContext(ctx, d, opt)
	}
	_, mallocs = a.since()
	p.set("sim.validate_exact_allocs", mallocs/float64(len(ds)), "count")
	p.set("trace.overhead_pct", traceOverhead(ctx, insts, opt), "%")
	return p
}

// traceOverheadRounds is how many times traceOverhead times the pass
// each way.
const traceOverheadRounds = 16

// traceOverhead measures what recording spans costs the traced run: the
// process CPU time of the serial generate + validate.exact pass over
// insts with spans on against the same pass with tracing off, in
// alternating rounds, as the difference of the medians in percent of
// the untraced one. The serial pass records more spans per unit of work
// than any other phase, so the figure bounds the overhead of the rest.
// Each pass starts from a collected heap, and the order of the two
// alternates, so neither pays for the other's garbage. Noise of a
// percent or so either way is in the reading.
func traceOverhead(ctx context.Context, insts []usecases.Instance, opt sim.Options) float64 {
	pass := func(tr *tracer) float64 {
		runtime.GC()
		c0 := selfCPU()
		for i, inst := range insts {
			op := i + 1
			root := tr.begin("design", 0, op)
			id := tr.begin("generate", root, op)
			d, err := core.GenerateContext(ctx, inst.Spec)
			tr.end(id)
			if err == nil {
				id = tr.begin("validate.exact", root, op)
				_, _ = sim.ValidateContext(ctx, d, opt)
				tr.end(id)
			}
			tr.end(root)
		}
		return (selfCPU() - c0).Seconds()
	}
	var on, off []float64
	for r := 0; r < traceOverheadRounds; r++ {
		if r%2 == 0 {
			off = append(off, pass(newTracer(false)))
			on = append(on, pass(newTracer(true)))
		} else {
			on = append(on, pass(newTracer(true)))
			off = append(off, pass(newTracer(false)))
		}
	}
	return 100 * (median(on) - median(off)) / median(off)
}
