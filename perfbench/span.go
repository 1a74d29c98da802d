package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call from the benchmark into a layer.
type span struct {
	Name   string `json:"name"`
	Page   int    `json:"page"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same methods for free.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, page, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Page: page, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, page, parent int, fn func()) {
	id := t.begin(name, page, parent)
	fn()
	t.end(id)
}

// agg is the per-name aggregate of closed spans.
type agg struct {
	count      int
	total, own time.Duration
}

// aggregate sums span durations and self time (duration minus the part
// covered by child spans) per name.
func (t *tracer) aggregate() map[string]*agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*agg{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.count++
		a.total += d
		a.own += d - child[i]
	}
	return out
}

// write stores the stamp and then every span as one JSON line under dir,
// and prints a self-time summary per span name.
func (t *tracer) write(dir, file, stamp string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"stamp\":%s}\n", stamp)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	aggs := t.aggregate()
	names := make([]string, 0, len(aggs))
	for name := range aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("spans: %d written to %s\n", n, path)
	for _, name := range names {
		a := aggs[name]
		fmt.Printf("  %-28s count=%-7d total=%-12v self=%v\n", name, a.count, a.total.Round(time.Microsecond), a.own.Round(time.Microsecond))
	}
	return nil
}
