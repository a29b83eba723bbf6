package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span that
// caused it (0 for a root) and Req the load generator's request id (0 for
// work that belongs to no request, such as set-up or a replayed kernel).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries: the current span and its request.
type spanRef struct{ id, req int64 }

// withRequest tags ctx with a request id; spans started under it inherit
// the id.
func withRequest(ctx context.Context, req int64) context.Context {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	ref.req = req
	return context.WithValue(ctx, spanKey{}, ref)
}

// tracing is the switch the instrumented call sites read: nil records
// nothing, so an untraced phase pays one atomic load per boundary.
type tracing struct{ p atomic.Pointer[tracer] }

// start opens a span named name under the span ctx carries and returns a
// context carrying the new span and the function that closes it.
func (tg *tracing) start(ctx context.Context, name string) (context.Context, func()) {
	t := tg.p.Load()
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	s := span{ID: t.next.Add(1), Parent: parent.id, Req: parent.req, Name: name, Start: int64(time.Since(t.epoch))}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, req: s.Req})
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			s.End = int64(time.Since(t.epoch))
			t.mu.Lock()
			t.spans = append(t.spans, s)
			t.mu.Unlock()
		})
	}
}

// time runs fn inside a span and returns how long it took.
func (tg *tracing) time(ctx context.Context, name string, fn func()) time.Duration {
	_, end := tg.start(ctx, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

// handler wraps h so every ServeHTTP call is a span.
func (tg *tracing) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, end := tg.start(r.Context(), name)
		defer end()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Overlapping children (a
// router retry racing a stream) are merged before subtracting, and a child
// running past its parent's end is clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				flush()
				curLo, curHi = lo, hi
				continue
			}
			curHi = max(curHi, hi)
		}
		flush()
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfMillis returns the self times, in ms, of every span named name.
func selfMillis(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}
