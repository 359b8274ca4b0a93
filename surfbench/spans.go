package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan = -1

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the recorder started, the span that caused it, and the
// request (transfer, trial or epoch) it belongs to.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Req    int64
}

// recorder keeps spans in memory for the whole traced run; they are written
// out once, at the end, so recording stays a lock and an append.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// start opens a span and returns its id. A nil recorder records nothing,
// so the untraced path runs the same code.
func (r *recorder) start(name string, parent int, req int64) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the recorded spans; call it after every span has ended.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that the union of its children covers.
// Children may overlap one another (parallel workers under one epoch), so
// the union, not the sum, is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfByName collects the self times of every span named name, in the
// given unit.
func selfByName(spans []span, self []int64, name string, unit time.Duration) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/float64(unit))
		}
	}
	return out
}

// spanFile names a traced run's span file.
func spanFile(o runOpts) string { return fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed) }

// writeSpans writes spans as JSON lines (name, start and end in ns, parent
// id, request id) under dir, creating it.
func writeSpans(dir, file string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
