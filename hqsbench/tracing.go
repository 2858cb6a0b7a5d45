package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call across a layer boundary. Spans of one request (an
// hqs_hard instance or one HTTP request) share Req; Parent links a span to
// the span whose call caused it.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Req      int              `json:"req"`
	Name     string           `json:"name"`
	StartUS  float64          `json:"start_us"`
	DurUS    float64          `json:"dur_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}

// timed runs fn inside a span named name and returns the span's id (0 when
// tracing is off). The id is reserved before fn runs, so spans fn records
// can name it as their parent.
func (t *tracer) timed(req, parent int, name string, fn func(id int)) int {
	if t == nil {
		fn(0)
		return 0
	}
	id := t.add(span{Req: req, Parent: parent, Name: name})
	start := time.Now()
	fn(id)
	dur := time.Since(start)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.StartUS = float64(start.Sub(t.epoch).Nanoseconds()) / 1e3
	s.DurUS = float64(dur.Nanoseconds()) / 1e3
	t.mu.Unlock()
	return id
}

// passSink turns the pipeline's per-pass trace events into spans under the
// engine call's span. Events of the QBF back end arrive before the HQS
// "qbf" pass that ran them finishes, so they are held until that event
// names their parent.
type passSink struct {
	t       *tracer
	req     int
	parent  int
	pending []int
	// topWall sums the wall time of the HQS pipeline's own passes, which
	// enclose the QBF back end's.
	topWall time.Duration
}

// Emit implements trace.Sink; the runner calls it right after a pass
// returns, so the span ends now.
func (s *passSink) Emit(ev trace.Event) {
	now := time.Now()
	s.record(ev, now.Add(-ev.Wall))
}

func (s *passSink) record(ev trace.Event, start time.Time) {
	id := s.t.add(span{
		Req:      s.req,
		Parent:   s.parent,
		Name:     "pass." + ev.Stage + "." + ev.Pass,
		StartUS:  float64(start.Sub(s.t.epoch).Nanoseconds()) / 1e3,
		DurUS:    float64(ev.Wall.Nanoseconds()) / 1e3,
		Counters: ev.Counters,
	})
	if ev.Stage == "hqs" {
		s.topWall += ev.Wall
	}
	switch {
	case ev.Stage != "hqs":
		s.pending = append(s.pending, id)
	case ev.Pass == "qbf":
		for _, c := range s.pending {
			s.t.setParent(c, id)
		}
		s.pending = nil
	}
}

// layerTotal aggregates every span of one name.
type layerTotal struct {
	Runs   int
	DurUS  float64
	SelfUS float64
}

// totals folds the spans into per-name totals; a span's self time is its
// duration minus the durations of its children (children of one span run
// one after another, never overlapping).
func (t *tracer) totals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.DurUS
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Runs++
		lt.DurUS += s.DurUS
		lt.SelfUS += s.DurUS - child[s.ID]
	}
	return out
}

// counter sums one counter over the spans of one name.
func (t *tracer) counter(name, key string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, s := range t.spans {
		if s.Name == name {
			n += s.Counters[key]
		}
	}
	return n
}

// write dumps the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
