// Command perfbench is the repository's benchmark. One run drives the
// whole pipeline in three phases — batch exploration (grid), a child
// oocd over loopback HTTP (serve) and higher-fidelity verification
// (physics) — checks every output, and prints every metric with its
// unit; the last line of stdout is one JSON object. The workload names
// the phase that gets half of the run's time; the other two get a
// quarter each. See README.md for the metric map.
//
//	perfbench -workload grid -seed 1 -seconds 35 -trace 0 -oocd path/to/oocd
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ooc/internal/core"
	"ooc/internal/eval"
	"ooc/internal/sim"
	"ooc/internal/usecases"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	oocd     string
	traceDir string
}

// env is a set-up run: its inputs, the designs the physics phase
// verifies, and the listening daemon.
type env struct {
	in      *inputs
	designs []*core.Design
	daemon  *daemon
}

// setup draws the inputs, generates the physics designs, warms the
// in-process phases and starts the daemon.
func setup(ctx context.Context, cfg config) (*env, error) {
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &env{in: in}
	for _, spec := range in.physics {
		d, err := core.GenerateContext(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("physics design: %w", err)
		}
		e.designs = append(e.designs, d)
	}
	if _, err := eval.Grid(ctx, in.grid[:64], runtime.NumCPU(), sim.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("grid warm-up: %w", err)
	}
	if err := warmPhysics(ctx, usecases.Fig4Instance().Spec); err != nil {
		return nil, fmt.Errorf("physics warm-up: %w", err)
	}
	if e.daemon, err = startDaemon(cfg.oocd); err != nil {
		return nil, err
	}
	return e, nil
}

func run(cfg config) (*result, error) {
	ctx := context.Background()
	// Set-up is CPU-bound work plus a process spawn, waiting on one
	// vCPU at a time.
	var setups, setupWall []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.daemon.stop()
		}
		stat, t0 := readCPUStat(), time.Now()
		var err error
		if e, err = setup(ctx, cfg); err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		setupWall = append(setupWall, wall)
		setups = append(setups, unstolen(wall, stealSince(stat)))
	}
	fmt.Printf("setup: %.4g s wall-clock (median of %d)\n", median(setupWall), setupReps)
	defer e.daemon.stop()

	tr := newTracer(cfg.trace)
	host := startHost()
	pid := e.daemon.cmd.Process.Pid
	daemonCPU0, _ := pidCPU(pid)
	phases := interleave(ctx, time.Duration(cfg.seconds)*time.Second, cfg.workload, []*lane{
		{name: "grid", s: newGrid(e.in, tr), min: 8},
		{name: "serve", s: newServe(ctx, e.in, e.daemon, tr), min: 1000/serveBurst + 1},
		{name: "physics", s: newPhysics(e.designs, tr), min: 10},
	})
	daemonCPU1, _ := pidCPU(pid)
	host.addChild(daemonCPU1 - daemonCPU0)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range []string{"grid", "serve", "physics"} {
		p := phases[name]
		res.Attempted += p.attempted
		res.Failed += p.failed
		for k, v := range p.metrics {
			res.Metrics[k] = v
		}
		for _, msg := range p.notes {
			fmt.Println(msg)
		}
		for _, msg := range p.problems {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "check failed:", msg)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	own := phases[cfg.workload]
	steal, ratio := host.stealPct(), host.cpuWallRatio()
	fmt.Printf("host: steal %.2f%%, cpu/wall %.3f over the measured phases\n", steal, ratio)
	if cfg.trace {
		res.Metrics["host.steal_pct"] = metric{steal, "%"}
		res.Metrics["host.cpu_wall_ratio"] = metric{ratio, "ratio"}
		res.Metrics["trace.spans"] = metric{float64(len(tr.spans)), "count"}
		fmt.Print(tr.summary())
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", path)
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["cpu_ms_per_op"] = metric{own.cpuPerOp, "ms"}
		alloc := own.allocPerOp
		if cfg.workload == "serve" {
			var err error
			if alloc, err = serveAllocPerRequest(e.in); err != nil {
				res.Correct = false
				fmt.Fprintln(os.Stderr, "check failed: serve replay:", err)
			}
		}
		res.Metrics["alloc_kb_per_op"] = metric{alloc, "kB"}
	}
	return res, nil
}

// lane is one phase in the interleaved schedule.
type lane struct {
	name  string
	s     stepper
	min   int // steps the phase must make whatever the time
	share float64
	spent time.Duration
}

// interleave runs the phases' steps until the run's time is spent:
// the workload's own phase gets half of it, the others a quarter each.
// It always steps the phase furthest behind its share, so every phase
// samples the host across the whole run rather than in one stretch.
func interleave(ctx context.Context, total time.Duration, own string, lanes []*lane) map[string]*phase {
	for _, l := range lanes {
		l.share = 0.25
		if l.name == own {
			l.share = 0.5
		}
	}
	for {
		var next *lane
		for _, l := range lanes {
			owed := l.spent < time.Duration(l.share*float64(total)) || l.s.done() < l.min
			if !owed || !l.s.more() {
				continue
			}
			if next == nil || l.spent.Seconds()/l.share < next.spent.Seconds()/next.share {
				next = l
			}
		}
		if next == nil {
			break
		}
		t0 := time.Now()
		next.s.step(ctx)
		next.spent += time.Since(t0)
	}
	phases := map[string]*phase{}
	for _, l := range lanes {
		phases[l.name] = l.s.finish(ctx)
	}
	return phases
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "grid, serve or physics: the phase that gets half of the run's time")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "seconds the phases measure, in total")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&cfg.oocd, "oocd", "", "path of the oocd binary to serve from")
	flag.StringVar(&cfg.traceDir, "trace-dir", "traces", "directory the span JSON lines are written to")
	flag.Parse()
	cfg.trace = trace == 1
	err := func() error {
		switch {
		case cfg.workload != "grid" && cfg.workload != "serve" && cfg.workload != "physics":
			return fmt.Errorf("unknown workload %q (want grid, serve or physics)", cfg.workload)
		case cfg.oocd == "":
			return errors.New("-oocd is required")
		case cfg.seconds < 1:
			return errors.New("-seconds must be at least 1")
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k, m := range res.Metrics {
		names = append(names, k)
		// A phase whose every op failed has no medians; JSON has no NaN.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
