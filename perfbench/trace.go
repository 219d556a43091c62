package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"comfort/internal/exec"
	"comfort/internal/fuzzers"
)

// span is one traced interval. Times are nanoseconds since the tracer
// started; Parent 0 marks a root, and Trace is the root's ID, shared by
// every span of one campaign, figure-8 round or job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID; trace 0 makes it a root of its
// own trace.
func (t *tracer) begin(name string, trace, parent int64) int64 {
	return t.add(name, trace, parent, t.now(), -1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a complete span from start to end (tracer times) and
// returns its ID; trace 0 makes it a root of its own trace.
func (t *tracer) add(name string, trace, parent, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// traceOf returns the trace ID of span id.
func (t *tracer) traceOf(id int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Trace
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes aggregates spans by name: total duration and self time (the
// span's duration minus the part of it its children cover).
type layerTimes struct {
	total, self map[string]time.Duration
}

func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		lt.total[s.Name] += d
		lt.self[s.Name] += d - covered(s, children[s.ID])
	}
	return lt
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return time.Duration(sum)
}

// genProbe records every Next of a traced campaign's fuzzer as a span.
type genProbe struct {
	tr            *tracer
	trace, parent int64
}

// probedFuzzer wraps a Fuzzer for a genProbe. It keeps the wrapped
// fuzzer's Name, so the campaign's fingerprint is unchanged.
type probedFuzzer struct {
	f fuzzers.Fuzzer
	p *genProbe
}

// probedForkable additionally keeps Forkable, returning probed forks, so
// the campaign still takes its sharded generation path.
type probedForkable struct{ probedFuzzer }

func probe(f fuzzers.Fuzzer, p *genProbe) fuzzers.Fuzzer {
	if _, ok := f.(fuzzers.Forkable); ok {
		return &probedForkable{probedFuzzer{f, p}}
	}
	return &probedFuzzer{f, p}
}

func (w *probedFuzzer) Name() string { return w.f.Name() }

func (w *probedFuzzer) Next(rng *rand.Rand) []string {
	a := w.p.tr.now()
	out := w.f.Next(rng)
	w.p.tr.add("fuzzers.next", w.p.trace, w.p.parent, a, w.p.tr.now())
	return out
}

func (w *probedForkable) Fork(shardSeed int64) fuzzers.Fuzzer {
	return probe(w.f.(fuzzers.Forkable).Fork(shardSeed), w.p)
}

// timingGate wraps an exec.Gate. The time from Acquire's call to its
// return is slot wait; from Acquire's return to the matching Release the
// slot is busy with one physical run. Runs, wait and busy time are summed
// exactly. Spans stay few: a wait becomes an exec.slot_wait span only when
// it is long enough to be a real wait, and busy time becomes one
// exec.slot_busy span per interval in which at least one slot is held
// (the union of the concurrent runs), which is what a parent's self time
// needs.
type timingGate struct {
	g        exec.Gate
	tr       *tracer
	cur      atomic.Int64 // span ID of the running campaign
	mu       sync.Mutex
	held     []int64 // acquisition times of held slots, oldest first
	busyFrom int64   // start of the current union interval
	runs     atomic.Int64
	waitNS   atomic.Int64
	busyNS   atomic.Int64
}

// minWaitSpan is the shortest slot wait recorded as a span.
const minWaitSpan = 50 * time.Microsecond

func newTimingGate(n int, tr *tracer) *timingGate {
	return &timingGate{g: exec.NewGate(n), tr: tr}
}

func (g *timingGate) Acquire(ctx context.Context) error {
	a := g.tr.now()
	if err := g.g.Acquire(ctx); err != nil {
		return err
	}
	// Acquisitions and releases are stamped under one lock, so their
	// order in held is their order in time.
	g.mu.Lock()
	b := g.tr.now()
	if len(g.held) == 0 {
		g.busyFrom = b
	}
	g.held = append(g.held, b)
	g.mu.Unlock()
	g.waitNS.Add(b - a)
	if time.Duration(b-a) >= minWaitSpan {
		parent := g.cur.Load()
		g.tr.add("exec.slot_wait", g.tr.traceOf(parent), parent, a, b)
	}
	return nil
}

func (g *timingGate) Release() {
	g.mu.Lock()
	e := g.tr.now()
	a := g.held[0]
	g.held = g.held[1:]
	idle, from := len(g.held) == 0, g.busyFrom
	g.mu.Unlock()
	g.busyNS.Add(e - a)
	g.runs.Add(1)
	if idle {
		parent := g.cur.Load()
		g.tr.add("exec.slot_busy", g.tr.traceOf(parent), parent, from, e)
	}
	g.g.Release()
}
