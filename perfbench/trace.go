package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Spans nest: a span opened while another is
// open becomes its child.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	Session int     `json:"session"` // iteration that made the call
	Calls   int     `json:"calls"`   // calls covered (more than 1 when the span wraps a loop)
	Start   float64 `json:"start_s"` // seconds since the tracer was created
	End     float64 `json:"end_s"`
}

func (s span) duration() float64 { return s.End - s.Start }

// tracer keeps spans in memory for one benchmark process. The benchmark
// calls into the program from one goroutine, so a stack of open spans gives
// each new span its parent. A nil *tracer records nothing, but its timers
// still measure.
type tracer struct {
	origin  time.Time
	spans   []span
	open    []int // indexes into spans, innermost last
	session int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// setSession tags spans opened from now on with an iteration number.
func (t *tracer) setSession(n int) {
	if t != nil {
		t.session = n
	}
}

// timer measures one call; stop returns its wall seconds.
type timer struct {
	t     *tracer
	idx   int
	start time.Time
}

// start opens a span named after the called function. calls is how many
// calls the span covers.
func (t *tracer) start(name string, calls int) timer {
	now := time.Now()
	tm := timer{t: t, idx: -1, start: now}
	if t == nil {
		return tm
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	tm.idx = len(t.spans)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Session: t.session,
		Calls: calls, Start: now.Sub(t.origin).Seconds(),
	})
	t.open = append(t.open, tm.idx)
	return tm
}

func (tm timer) stop() float64 {
	now := time.Now()
	if t := tm.t; t != nil && tm.idx >= 0 {
		t.spans[tm.idx].End = now.Sub(t.origin).Seconds()
		// Close this span and anything left open inside it.
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == tm.idx {
				t.open = t.open[:i]
				break
			}
		}
	}
	return now.Sub(tm.start).Seconds()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children count once, and
// a child's time outside its parent's interval is ignored.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

// nameStats sums spans by name.
type nameStats struct {
	Name         string
	Spans, Calls int
	Total, Self  float64
}

func summarizeByName(spans []span) []nameStats {
	self := selfTimes(spans)
	byName := make(map[string]*nameStats)
	for _, s := range spans {
		ns := byName[s.Name]
		if ns == nil {
			ns = &nameStats{Name: s.Name}
			byName[s.Name] = ns
		}
		ns.Spans++
		ns.Calls += s.Calls
		ns.Total += s.duration()
		ns.Self += self[s.ID]
	}
	out := make([]nameStats, 0, len(byName))
	for _, ns := range byName {
		out = append(out, *ns)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// writeTrace writes every span, with its self time, as one JSON object per
// line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			Self float64 `json:"self_s"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable prints span totals by name, largest self time first.
func printSelfTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-44s %6s %9s %10s %10s\n", "span", "spans", "calls", "total_s", "self_s")
	fmt.Fprintln(w, strings.Repeat("-", 83))
	for _, ns := range summarizeByName(spans) {
		fmt.Fprintf(w, "%-44s %6d %9d %10.4f %10.4f\n", ns.Name, ns.Spans, ns.Calls, ns.Total, ns.Self)
	}
}
