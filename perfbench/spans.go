package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side of
// the call: nothing inside the program is instrumented.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int   // index of the enclosing stored span, -1 for a root
	req        int64 // request id shared by the spans of one request
}

// spanTotals aggregates every span of one name: how many, their summed
// duration, and the part of it their child spans covered. Self time is
// total minus child.
type spanTotals struct {
	count        int
	total, child time.Duration
}

func (a spanTotals) self() time.Duration { return a.total - a.child }

// tracer records the spans of one goroutine. Spans nest strictly (begin
// and end pair up like a call stack), so each span's self time is known
// when it ends. Only the first limit spans are kept for the span file; the
// per-name totals cover all of them.
type tracer struct {
	epoch time.Time
	spans []span
	limit int
	stack []open
	agg   map[string]*spanTotals
}

type open struct {
	name  string
	start int64
	child time.Duration
	idx   int
	req   int64
}

func newTracer(epoch time.Time, limit int) *tracer {
	return &tracer{epoch: epoch, limit: limit, agg: map[string]*spanTotals{}}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, req int64) {
	now := int64(time.Since(t.epoch))
	idx := -1
	if len(t.spans) < t.limit {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{name: name, start: now, parent: parent, req: req})
	}
	t.stack = append(t.stack, open{name: name, start: now, idx: idx, req: req})
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Duration(now - o.start)
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	a := t.agg[o.name]
	if a == nil {
		a = &spanTotals{}
		t.agg[o.name] = a
	}
	a.count++
	a.total += d
	a.child += o.child
}

// totals sums the named spans over tracers.
func totals(name string, ts ...*tracer) spanTotals {
	var s spanTotals
	for _, t := range ts {
		if a := t.agg[name]; a != nil {
			s.count += a.count
			s.total += a.total
			s.child += a.child
		}
	}
	return s
}

// writeSpans writes the stored spans of every tracer to dir/file as JSON
// lines, one span each; tid numbers the tracer (one per goroutine).
func writeSpans(dir, file string, ts ...*tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for tid, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "{\"tid\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
				tid, s.name, s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
