package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one traced interval. Spans with Source "bench" wrap a public
// call the benchmark made into a layer; spans with Source "program"
// are the program's own stage spans and counters (Server.Traces,
// StoreView.StageSpans, Store.TakeIngestSpans, Store.StorageStats,
// PlanInfo), attached as children of the call that returned them.
// Iter groups the spans of one request or iteration.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Iter    int                `json:"iter"`
	Name    string             `json:"name"`
	Source  string             `json:"source"`
	StartUs float64            `json:"startUs"`
	EndUs   float64            `json:"endUs"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op and begin returns 0.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span // spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) offsetUs(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span for a call the benchmark is about to make.
func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return 0
	}
	now := t.offsetUs(time.Now())
	return t.add(span{Parent: parent, Iter: iter, Name: name, Source: "bench", StartUs: now, EndUs: now})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.offsetUs(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndUs = now
	t.mu.Unlock()
}

// count attaches a counter to a span.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// ms returns a closed span's duration in milliseconds.
func (t *tracer) ms(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return (s.EndUs - s.StartUs) / 1e3
}

// attach files one of the program's stage spans, and its children,
// under parent.
func (t *tracer) attach(parent, iter int, s obs.Span) {
	if t == nil {
		return
	}
	start := t.offsetUs(s.Start)
	counts := map[string]float64{"rowsIn": float64(s.RowsIn), "rowsOut": float64(s.RowsOut)}
	if s.Workers > 0 {
		counts["workers"] = float64(s.Workers)
	}
	id := t.add(span{Parent: parent, Iter: iter, Name: "core." + s.Name, Source: "program",
		StartUs: start, EndUs: start + s.DurationMs*1e3, Counts: counts})
	for _, c := range s.Children {
		t.attach(id, iter, c)
	}
}

// attachTrace files one of the server's publication traces under
// parent: a span for the whole writer turn with the stage spans as
// its children.
func (t *tracer) attachTrace(parent, iter int, tr obs.Trace) {
	if t == nil {
		return
	}
	start := t.offsetUs(tr.Start)
	id := t.add(span{Parent: parent, Iter: iter, Name: "serve.publish." + tr.Kind, Source: "program",
		StartUs: start, EndUs: start + tr.DurationMs*1e3,
		Counts: map[string]float64{"epoch": float64(tr.Epoch), "generation": float64(tr.Generation), "docs": float64(tr.Docs)}})
	for _, s := range tr.Spans {
		t.attach(id, iter, s)
	}
}

// interval files a span of the program's whose length is known but
// which has no span of its own (training, from TrainStats).
func (t *tracer) interval(parent, iter int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := t.offsetUs(start)
	t.add(span{Parent: parent, Iter: iter, Name: name, Source: "program", StartUs: s, EndUs: s + float64(d.Nanoseconds())/1e3})
}

// counters files a zero-length span carrying counters the program
// returned (storage statistics, a query plan).
func (t *tracer) counters(parent, iter int, name string, counts map[string]float64) {
	if t == nil {
		return
	}
	now := t.offsetUs(time.Now())
	t.add(span{Parent: parent, Iter: iter, Name: name, Source: "program", StartUs: now, EndUs: now, Counts: counts})
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfUs returns each span's self time: its duration minus the part
// of its interval its children cover.
func (t *tracer) selfUs() []float64 {
	kids := make([][]int, len(t.spans)+1)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		var iv [][2]float64
		for _, k := range kids[s.ID] {
			c := t.spans[k-1]
			lo, hi := max(c.StartUs, s.StartUs), min(c.EndUs, s.EndUs)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := 0.0, 0.0, -1.0
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = (s.EndUs - s.StartUs) - covered
	}
	return self
}

// selfTimeTable summarizes the trace per span name: count, total and
// self time.
func (t *tracer) selfTimeTable() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	self := t.selfUs()
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.EndUs - s.StartUs
		a.self += self[i]
	}
	lines := []string{fmt.Sprintf("%-36s %8s %12s %12s", "span", "count", "total_ms", "self_ms")}
	for _, name := range sortedKeys(by) {
		a := by[name]
		lines = append(lines, fmt.Sprintf("%-36s %8d %12.3f %12.3f", name, a.n, a.total/1e3, a.self/1e3))
	}
	return lines
}

// write stores the spans, with their self times, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type out struct {
		span
		SelfUs float64 `json:"selfUs"`
	}
	self := t.selfUs()
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{span: s, SelfUs: self[i]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
