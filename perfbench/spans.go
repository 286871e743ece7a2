package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxStoredSpans bounds the spans a run keeps for writing out. Aggregates
// cover every span; only the stored sample is written, so a long run cannot
// grow the trace file or the heap without bound.
const maxStoredSpans = 50000

// span is one timed call into a layer: its name, when it started and ended
// (ns since the tracer's base), the span that caused it, and the request it
// served (0 when it serves none).
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Req    uint64
	Start  int64
	End    int64
}

// spanAgg accumulates every span of one name: how many, their total
// duration, and the part of it covered by their child spans.
type spanAgg struct {
	Count   int64
	TotalNs int64
	ChildNs int64
}

// tracer records spans in memory. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site. Safe for concurrent use: the
// generator and the lifecycle ticker share one tracer.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	nextID  uint64
	stored  []span
	dropped int64
	agg     map[string]*spanAgg
}

// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func newTracer() *tracer {
	return &tracer{base: time.Now(), agg: make(map[string]*spanAgg)}
}

// now returns the tracer clock in ns.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// id reserves a span id, for a span whose children are recorded before it.
func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span. id 0 asks for a fresh id; parentName is the
// parent's name ("" for a root), used to charge the duration to the parent's
// child time so self time falls out of the aggregates.
func (t *tracer) record(id uint64, name string, parent uint64, parentName string, req uint64, start, end int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.Count++
	a.TotalNs += end - start
	if parentName != "" {
		p := t.agg[parentName]
		if p == nil {
			p = &spanAgg{}
			t.agg[parentName] = p
		}
		p.ChildNs += end - start
	}
	if len(t.stored) < maxStoredSpans {
		t.stored = append(t.stored, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	} else {
		t.dropped++
	}
	return id
}

// meanNs returns the mean duration of the named spans, 0 when none ran.
func (t *tracer) meanNs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return float64(a.TotalNs) / float64(a.Count)
}

// selfNs returns the summed duration of the named spans minus the part
// their child spans cover.
func (t *tracer) selfNs(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		return 0
	}
	return a.TotalNs - a.ChildNs
}

// write stores the kept spans as JSON lines in path and returns how many
// were written and how many were dropped past maxStoredSpans.
func (t *tracer) write(path string) (int, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.stored {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Name, s.Req, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return len(t.stored), t.dropped, nil
}
