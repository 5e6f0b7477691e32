package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/session"
	"repro/internal/system"
)

// span is one timed interval at a layer boundary. Spans of one job or
// query share Query; Parent is 0 for a root span. Inner is time the
// span's layer spent waiting on work the trace cannot see as child
// spans (worker-side busy time across the TCP hop), subtracted from
// its self time.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Name   string        `json:"name"`
	Query  uint64        `json:"query"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Inner  time.Duration `json:"inner_ns,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced phases run.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries to the next layer down.
type spanRef struct{ id, query uint64 }

// withQuery starts a context for a new job or query.
func withQuery(ctx context.Context, query uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{query: query})
}

// start opens a span as a child of the context's span and returns the
// context for the layer below plus the function that closes the span.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func(inner time.Duration) span) {
	if r == nil {
		return ctx, func(time.Duration) span { return span{} }
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	s := span{ID: r.next.Add(1), Parent: parent.id, Name: name, Query: parent.query, Start: time.Since(r.epoch)}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, query: parent.query})
	return ctx, func(inner time.Duration) span {
		s.End = time.Since(r.epoch)
		s.Inner = inner
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
		return s
	}
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes the spans as JSON lines, ordered by start time.
func (r *recorder) dump(path string) error {
	spans := r.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval covered by the union of its children,
// minus its Inner time, floored at zero.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID]) - s.Inner
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spansNamed returns the spans with the given name.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median duration of spans in milliseconds (0 for none).
func medianMS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = ms(s.dur())
	}
	return median(xs)
}

// medianSelfMS is the median self time of spans in milliseconds.
func medianSelfMS(spans []span, self map[uint64]time.Duration) float64 {
	if len(spans) == 0 {
		return 0
	}
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = ms(self[s.ID])
	}
	return median(xs)
}

// tally counts what replications a Backend returned.
type tally struct {
	Reps     uint64 // replications returned
	Arrivals uint64 // local + global task arrivals
	Tasks    uint64 // node submissions (Engine.TasksSubmitted)
	Events   uint64 // engine events fired
}

func (t *tally) add(m *system.Metrics) {
	t.Reps++
	t.Arrivals += uint64(m.LocalGenerated + m.GlobalGenerated)
	t.Tasks += m.Engine.TasksSubmitted
	t.Events += m.Engine.EventsFired
}

// spanBackend is a pass-through session.Backend placed at a layer seam:
// it records one span per Run, tallies the replications that came back,
// and otherwise hands the shard and its result through untouched.
type spanBackend struct {
	name  string
	inner session.Backend
	rec   *recorder
	// innerBusy, when set, returns per-worker cumulative busy time; the
	// largest per-worker increase over a Run is recorded as the span's
	// Inner time.
	innerBusy func() map[uint64]time.Duration

	mu sync.Mutex
	t  tally
}

func (b *spanBackend) Run(ctx context.Context, shard session.Shard) (session.ShardResult, error) {
	var before map[uint64]time.Duration
	if b.innerBusy != nil {
		before = b.innerBusy()
	}
	ctx, end := b.rec.start(ctx, b.name)
	res, err := b.inner.Run(ctx, shard)
	var inner time.Duration
	if b.innerBusy != nil {
		for id, v := range b.innerBusy() {
			inner = max(inner, v-before[id])
		}
	}
	end(inner)
	b.mu.Lock()
	for _, m := range res.Metrics[:res.Completed] {
		b.t.add(m)
	}
	b.mu.Unlock()
	return res, err
}

// Unwrap lets session.CollectBackendStats see the facets of the layer
// below, so snapshots read the same with or without the wrapper.
func (b *spanBackend) Unwrap() session.Backend { return b.inner }

// tally returns the counts so far.
func (b *spanBackend) tally() tally {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.t
}
