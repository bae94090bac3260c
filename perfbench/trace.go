package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. IDs start at 1; Parent 0 marks
// a root. Op groups the spans of one operation (a design, a request, a
// verification). Times are nanoseconds since the tracer started.
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  int64
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced runs pay one branch per call.
// It is used from one goroutine: spans wrap calls made by the
// benchmark's own loop, never the program's internal workers.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.base))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.base))
}

// rename changes a span's name once its outcome is known (an HTTP
// request is cold or warm only after the reply arrives).
func (t *tracer) rename(id int, name string) {
	if id != 0 {
		t.spans[id-1].Name = name
	}
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval its child spans cover, indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

type spanLine struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeJSONL writes every span, with its self time, as one JSON object
// per line.
func (t *tracer) writeJSONL(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	self := t.selfTimes()
	for i, s := range t.spans {
		if err := enc.Encode(spanLine{s.ID, s.Parent, s.Op, s.Name, s.Start, s.End, self[i]}); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// summary returns, per span name, the count and the median total and
// self time.
func (t *tracer) summary() string {
	self := t.selfTimes()
	type agg struct{ total, self []float64 }
	by := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.total = append(a.total, float64(s.End-s.Start))
		a.self = append(a.self, float64(self[i]))
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %14s %14s\n", "span", "count", "p50 total us", "p50 self us")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(&b, "%-22s %7d %14.1f %14.1f\n", n, len(a.total), median(a.total)/1e3, median(a.self)/1e3)
	}
	return b.String()
}
