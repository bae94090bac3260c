package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ooc/internal/core"
	"ooc/internal/render"
	"ooc/internal/server"
	"ooc/internal/specio"
)

// daemon is a child oocd listening on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon spawns oocd on an ephemeral loopback port and waits
// until it reports the address it listens on.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the kernel kills
	// the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			line <- sc.Text()
		}
		close(line)
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case l, ok := <-line:
		addr, found := strings.CutPrefix(l, "oocd: listening on ")
		if !ok || !found {
			d.stop()
			return nil, fmt.Errorf("oocd did not report its address (got %q)", l)
		}
		d.base = "http://" + addr
		return d, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("oocd did not start listening within 30s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes too long.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// metricsDoc is a parsed /metrics exposition: each line's series name
// (with labels) mapped to its value.
type metricsDoc map[string]float64

func scrape(ctx context.Context, c *http.Client, base string) (metricsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // only read
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	doc := metricsDoc{}
	for _, l := range strings.Split(string(raw), "\n") {
		i := strings.LastIndexByte(l, ' ')
		if i < 0 || strings.HasPrefix(l, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
			doc[l[:i]] = v
		}
	}
	return doc, nil
}

// sub returns the change of every series between two scrapes.
func (m metricsDoc) sub(before metricsDoc) metricsDoc {
	out := metricsDoc{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// histP50 estimates the median of the design and validate request
// latencies from the daemon's exponential microsecond histogram,
// interpolating inside the bucket that holds it.
func (m metricsDoc) histP50() float64 {
	type bucket struct{ hi, n float64 }
	var bs []bucket
	var total float64
	for _, ep := range []string{"design", "validate"} {
		prefix := fmt.Sprintf("ooc_request_duration_micros_bucket{endpoint=%q,le=\"", ep)
		for k, v := range m {
			if le, ok := strings.CutPrefix(k, prefix); ok && !strings.HasPrefix(le, "+Inf") {
				hi, _ := strconv.ParseFloat(strings.TrimSuffix(le, "\"}"), 64)
				bs = append(bs, bucket{hi, v})
			}
		}
		total += m[fmt.Sprintf("ooc_request_duration_micros_count{endpoint=%q}", ep)]
	}
	// Buckets are cumulative per endpoint; merge them by bound.
	sort.Slice(bs, func(i, j int) bool { return bs[i].hi < bs[j].hi })
	cum := map[float64]float64{}
	var his []float64
	for _, b := range bs {
		if _, ok := cum[b.hi]; !ok {
			his = append(his, b.hi)
		}
		cum[b.hi] += b.n
	}
	// A histogram missing a bound at hi still covers it with its
	// previous cumulative count; with per-endpoint bounds mostly shared
	// the error is one bucket at worst, fine for a per-layer figure.
	lo, below := 0.0, 0.0
	for _, hi := range his {
		if cum[hi] >= total/2 {
			return lo + (hi-lo)*(total/2-below)/(cum[hi]-below)
		}
		lo, below = hi, cum[hi]
	}
	return lo
}

// sample is one answered request.
type sample struct {
	ms   float64
	warm bool
}

// serveBurst is how many requests one step sends.
const serveBurst = 64

// serveRun is a closed loop over one connection: each request is sent
// when the previous reply has arrived, as a design tool waiting on the
// daemon would.
type serveRun struct {
	p      *phase
	in     *inputs
	d      *daemon
	tr     *tracer
	tp     *http.Transport
	c      *http.Client
	before metricsDoc
	broken bool // the daemon could not be measured; stop stepping

	sent    int
	samples []sample
	cpu0    time.Duration        // oocd's CPU time when the phase started
	first   map[request][32]byte // body digest of each key's first answer
	non2xx  int
	kinds   [3]int // requests sent per endpoint
}

func newServe(ctx context.Context, in *inputs, d *daemon, tr *tracer) *serveRun {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	s := &serveRun{p: newPhase("serve"), in: in, d: d, tr: tr, tp: tp, c: &http.Client{Transport: tp}, first: map[request][32]byte{}}
	var err error
	if s.before, err = scrape(ctx, s.c, d.base); err != nil {
		s.p.fail("scrape /metrics: %v", err)
		s.broken = true
	} else if s.cpu0, err = pidCPU(d.cmd.Process.Pid); err != nil {
		s.p.fail("oocd CPU: %v", err)
		s.broken = true
	}
	return s
}

func (s *serveRun) done() int  { return s.sent }
func (s *serveRun) more() bool { return !s.broken }

func (s *serveRun) step(ctx context.Context) {
	s.p.measure(func() {
		for n := 0; n < serveBurst; n++ {
			s.send(ctx)
		}
	})
}

// send makes the next request of the stream and checks its reply.
func (s *serveRun) send(ctx context.Context) {
	p := s.p
	rq := s.in.stream[s.sent%len(s.in.stream)]
	s.sent++
	s.kinds[rq.kind]++
	p.attempted++
	body, warm, ms, err := s.exchange(ctx, rq)
	if err != nil {
		p.fail("%s key %d: %v", rq.kind.path(), rq.key, err)
		return
	}
	s.samples = append(s.samples, sample{ms, warm})
	sum := sha256.Sum256(body)
	if prev, ok := s.first[rq]; !ok {
		s.first[rq] = sum
	} else if !p.check(prev == sum, "%s key %d: body differs from the first answer (warm=%v)", rq.kind.path(), rq.key, warm) {
		p.failed++
	}
}

// exchange posts one request inside a span and returns the reply body,
// whether the response cache answered it, and the latency in ms.
func (s *serveRun) exchange(ctx context.Context, rq request) (body []byte, warm bool, ms float64, err error) {
	name := "http.design"
	if rq.kind != design {
		name = "http.validate.cold"
	}
	id := s.tr.begin(name, 0, s.sent)
	defer s.tr.end(id)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.base+rq.kind.path(), bytes.NewReader(s.in.serveSpecs[rq.key]))
	if err != nil {
		return nil, false, 0, err
	}
	resp, err := s.c.Do(req)
	if err != nil {
		return nil, false, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end; nothing is left to lose
	ms = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return nil, false, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		s.non2xx++
		return nil, false, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	warm = resp.Header.Get("X-Cache") == "hit"
	if warm && rq.kind != design {
		s.tr.rename(id, "http.validate.warm")
	}
	return body, warm, ms, nil
}

func (s *serveRun) finish(ctx context.Context) *phase {
	p, tr := s.p, s.tr
	defer s.tp.CloseIdleConnections()
	if s.broken {
		return p
	}
	p.win.finish()
	// oocd's CPU per request over the whole phase: the daemon idles
	// between steps, so its CPU since the phase started is the cost of
	// the requests sent.
	cpu, err := pidCPU(s.d.cmd.Process.Pid)
	if err != nil {
		p.fail("oocd CPU: %v", err)
		return p
	}
	p.cpuPerOp = float64(cpu-s.cpu0) / float64(time.Millisecond) / float64(s.sent)
	after, err := scrape(ctx, s.c, s.d.base)
	if err != nil {
		p.fail("scrape /metrics: %v", err)
		return p
	}
	delta := after.sub(s.before)
	hits := delta["ooc_response_cache_hits_total"]
	misses := delta["ooc_response_cache_misses_total"]
	aborts := delta["ooc_response_cache_join_aborts_total"]
	p.check(int(hits+misses+aborts) == p.attempted,
		"cache hits %v + misses %v + join aborts %v != %d cached requests", hits, misses, aborts, p.attempted)
	sent := float64(s.sent)
	p.note("stream: %.2f%% misses (drawn for %.0f%%, key skew %.4g); endpoints: validate exact %.1f%%, error_budget %.1f%%, design %.1f%%",
		100*misses/(hits+misses+aborts), 100*serveMissShare, s.in.zipf,
		100*float64(s.kinds[validateExact])/sent, 100*float64(s.kinds[validateBudget])/sent, 100*float64(s.kinds[design])/sent)

	// The medians of the wall-clock latencies of warm and of cold
	// requests over the phase. Steal is not taken out: it comes in
	// gaps of milliseconds that land on a few sub-millisecond requests
	// and so in the tail, not at the median (see README.md).
	var all, warm, cold []float64
	for _, x := range s.samples {
		all = append(all, x.ms)
		if x.warm {
			warm = append(warm, x.ms)
		} else {
			cold = append(cold, x.ms)
		}
	}
	p.check(len(all) >= 1000 && len(cold) >= 10 && len(warm) >= 10,
		"too few samples for the tails: %d total, %d cold, %d warm", len(all), len(cold), len(warm))
	p.note("p50 warm %.4g ms, cold %.4g ms, p99 %.4g ms wall-clock over %d requests (%d cold), %.2f%% stolen",
		median(warm), median(cold), quantile(all, 0.99), len(all), len(cold), 100*p.win.meanSteal())
	if !tr.on {
		p.set("serve_warm_p50_ms", median(warm), "ms")
		p.set("serve_cold_p50_ms", median(cold), "ms")
		return p
	}
	// The tail is steal-bound on a shared host (see README.md), so it
	// is a per-layer figure, wall-clock as measured.
	p.set("serve_p99_ms", quantile(all, 0.99), "ms")
	serverP50 := delta.histP50()
	p.set("server.request_p50_us", serverP50, "us")
	p.set("http.overhead_us", median(all)*1e3-serverP50, "us")
	p.set("server.cache_hit_ratio", hits/(hits+misses+aborts), "ratio")
	p.set("server.cache_misses", misses, "count")
	p.set("server.join_aborts", aborts, "count")
	p.set("server.non2xx", float64(s.non2xx), "count")
	selects := delta[`ooc_model_selection_duration_micros_count{endpoint="select"}`]
	p.set("modelsel.select_us", delta[`ooc_model_selection_duration_micros_sum{endpoint="select"}`]/max(selects, 1), "us")
	for _, rung := range []string{"approx", "exact", "numeric@32", "numeric@64"} {
		name := "modelsel.selected." + strings.ReplaceAll(rung, "@", "-")
		p.set(name, delta[fmt.Sprintf("ooc_model_selected_total{rung=%q}", rung)], "count")
	}
	layerTimings(p, s.in)
	return p
}

// layerTimings times, in process, the per-request work of the layers
// the daemon runs on every request (specio) and on every design miss
// (render).
func layerTimings(p *phase, in *inputs) {
	var parse, rend []float64
	for i, doc := range in.serveSpecs {
		t0 := time.Now()
		spec, err := specio.Parse(doc)
		if err == nil {
			_, err = specio.Canonical(spec)
		}
		parse = append(parse, float64(time.Since(t0)))
		if err != nil {
			p.check(false, "specio: %v", err)
			continue
		}
		if i < 64 {
			d, err := core.Generate(spec)
			if err != nil {
				p.check(false, "generate: %v", err)
				continue
			}
			t0 = time.Now()
			_, err = render.JSON(d)
			rend = append(rend, float64(time.Since(t0)))
			p.check(err == nil, "render: %v", err)
		}
	}
	p.set("specio.parse_canonical_us", median(parse)/1e3, "us")
	p.set("render.json_us", median(rend)/1e3, "us")
}

// The allocation replay first sends serveReplayWarm stream requests to
// fill the response cache, then measures the next serveReplayN, so the
// measured share of misses is the stream's steady one.
const (
	serveReplayWarm = 2000
	serveReplayN    = 4000
)

// serveAllocPerRequest replays the stream through an in-process
// server.Handler and returns the kilobytes the handlers allocate per
// request. The daemon's own allocations are not visible from outside
// its process; the replay runs the same handlers, caches and pipeline,
// without net/http's connection handling.
func serveAllocPerRequest(in *inputs) (float64, error) {
	h := server.New(server.Config{}).Handler()
	replay := func(stream []request) (float64, error) {
		reqs := make([]*http.Request, len(stream))
		recs := make([]*httptest.ResponseRecorder, len(stream))
		for i, rq := range stream {
			reqs[i] = httptest.NewRequest(http.MethodPost, rq.kind.path(), bytes.NewReader(in.serveSpecs[rq.key]))
			recs[i] = httptest.NewRecorder()
		}
		a := startAlloc()
		for i, r := range reqs {
			h.ServeHTTP(recs[i], r)
		}
		bytes, _ := a.since()
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("replay request %d: status %d", i, rec.Code)
			}
		}
		return bytes, nil
	}
	if _, err := replay(in.stream[:serveReplayWarm]); err != nil {
		return 0, err
	}
	bytes, err := replay(in.stream[serveReplayWarm : serveReplayWarm+serveReplayN])
	return bytes / 1024 / serveReplayN, err
}
