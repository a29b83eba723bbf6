package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// reply is what the load generator saw of one request.
type reply struct {
	plan   int       // index into the phase's request list
	due    time.Time // when the request was due to be sent
	sent   time.Time // when ServeHTTP was called
	status int
	events []time.Time // arrival of each SSE token event
	tokens []int       // tokens of the token events, in order
	final  *serve.GenerateResponse
	bad    string // first stream defect seen, "" if none
}

// refused reports a 429/503 answer: the system shed the request.
func (r *reply) refused() bool {
	return r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable
}

// streamDefect returns why the reply is not a well-formed complete
// stream whose token events assemble to the final event's tokens, or "".
func (r *reply) streamDefect(maxTokens int) string {
	switch {
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	case r.bad != "":
		return r.bad
	case r.final == nil:
		return "stream ended without a final event"
	case r.final.Error != "" || r.final.FinishReason != string(serve.FinishLength):
		return fmt.Sprintf("finish %q error %q", r.final.FinishReason, r.final.Error)
	case !equalInts(r.tokens, r.final.Tokens):
		return fmt.Sprintf("token events %v != final tokens %v", r.tokens, r.final.Tokens)
	case len(r.tokens) != maxTokens:
		return fmt.Sprintf("%d tokens, want %d", len(r.tokens), maxTokens)
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sseRecorder is the client-side ResponseWriter: it assembles the body
// into SSE events as the handler writes it and timestamps each event on
// arrival of its terminating blank line.
type sseRecorder struct {
	header http.Header
	rep    *reply
	buf    []byte
}

func newRecorder(rep *reply) *sseRecorder { return &sseRecorder{header: http.Header{}, rep: rep} }

func (w *sseRecorder) Header() http.Header { return w.header }

func (w *sseRecorder) WriteHeader(code int) {
	if w.rep.status == 0 {
		w.rep.status = code
	}
}

func (w *sseRecorder) Flush() { w.WriteHeader(http.StatusOK) }

func (w *sseRecorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.rep.status != http.StatusOK {
		return len(p), nil // error bodies are not events
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.Index(w.buf, []byte("\n\n"))
		if i < 0 {
			return len(p), nil
		}
		w.event(w.buf[:i], time.Now())
		w.buf = w.buf[i+2:]
	}
}

func (w *sseRecorder) event(ev []byte, at time.Time) {
	rep := w.rep
	payload, ok := bytes.CutPrefix(ev, []byte("data: "))
	if !ok {
		return
	}
	var e struct {
		Token        int     `json:"token"`
		Index        *int    `json:"index"`
		FinishReason *string `json:"finish_reason"`
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		w.defect(fmt.Sprintf("bad event %q: %v", payload, err))
		return
	}
	switch {
	case rep.final != nil:
		w.defect("event after the final event")
	case e.FinishReason != nil:
		var final serve.GenerateResponse
		if err := json.Unmarshal(payload, &final); err != nil {
			w.defect(fmt.Sprintf("bad final event: %v", err))
			return
		}
		rep.final = &final
	case e.Index != nil:
		if *e.Index != len(rep.tokens) {
			w.defect(fmt.Sprintf("token index %d, want %d", *e.Index, len(rep.tokens)))
		}
		rep.tokens = append(rep.tokens, e.Token)
		rep.events = append(rep.events, at)
	}
}

func (w *sseRecorder) defect(s string) {
	if w.rep.bad == "" {
		w.rep.bad = s
	}
}

// client sends streaming generate requests to an in-process handler.
type client struct {
	h  http.Handler
	tg *tracing
}

// send calls ServeHTTP with one request body and records the reply.
func (c *client) send(ctx context.Context, reqID int64, body []byte, rep *reply) {
	ctx, end := c.tg.start(withRequest(ctx, reqID), "client.request")
	defer end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://aptq/v1/generate", bytes.NewReader(body))
	if err != nil {
		rep.bad = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.RequestURI = req.URL.RequestURI()
	rec := newRecorder(rep)
	rep.sent = time.Now()
	c.h.ServeHTTP(rec, req)
	if rep.status == 0 {
		rep.status = http.StatusOK
	}
	if len(rec.buf) > 0 && rep.bad == "" && rep.status == http.StatusOK {
		rep.bad = "trailing bytes after the last event"
	}
}

// openLoop sends reqs[i] at t0+at[i] whatever the replies do, each on its
// own goroutine, and returns once every reply is complete. A request the
// generator sends late keeps its due time, so the lateness is charged to
// its latency.
func (c *client) openLoop(ctx context.Context, t0 time.Time, at []time.Duration, bodies [][]byte, firstID int64) []*reply {
	reps := make([]*reply, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		due := t0.Add(at[i])
		time.Sleep(time.Until(due))
		reps[i] = &reply{plan: i, due: due}
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			c.send(ctx, firstID+int64(i), body, reps[i])
		}(i, body)
	}
	wg.Wait()
	return reps
}

// closedLoop runs callers goroutines that each send the next request of
// bodies (cycling) as soon as their previous reply completes, until
// deadline; requests in flight at the deadline run to completion. Each
// reply's due time is its send time.
func (c *client) closedLoop(ctx context.Context, deadline time.Time, callers int, bodies [][]byte, firstID int64) []*reply {
	var next atomic.Int64
	var mu sync.Mutex
	var reps []*reply
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				i := int(next.Add(1) - 1)
				rep := &reply{plan: i % len(bodies), due: now}
				c.send(ctx, firstID+int64(i), bodies[rep.plan], rep)
				mu.Lock()
				reps = append(reps, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return reps
}

// closedLoopOnce sends every body once from callers concurrent callers.
func (c *client) closedLoopOnce(ctx context.Context, callers int, bs [][]byte) []*reply {
	reps := make([]*reply, len(bs))
	var wg sync.WaitGroup
	work := make(chan int, len(bs)) // sized to hold every index
	for i := range bs {
		work <- i
	}
	close(work)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				reps[i] = &reply{plan: i, due: time.Now()}
				c.send(ctx, -int64(i+1), bs[i], reps[i])
			}
		}()
	}
	wg.Wait()
	return reps
}

// latencies derives the client-side latency samples of a phase: TTFT from
// each request's due time to its first token event (+Inf for a request
// that failed, was refused, or produced no token), the gaps between
// consecutive token events, and how late the generator sent each request.
func latencies(reps []*reply) (ttft, itl, late []float64) {
	for _, r := range reps {
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.status != http.StatusOK || r.bad != "" || len(r.events) == 0 {
			ttft = append(ttft, failedLatency)
			continue
		}
		ttft = append(ttft, ms(r.events[0].Sub(r.due)))
		for i := 1; i < len(r.events); i++ {
			itl = append(itl, ms(r.events[i].Sub(r.events[i-1])))
		}
	}
	return ttft, itl, late
}

// phaseSlices is how many slices of a phase the end-to-end latency and
// throughput metrics are the median over. On a shared machine the host
// takes CPU time in streaks of seconds; the median keeps a streak that
// covers a minority of the slices out of the metric.
const phaseSlices = 5

// slicedMedian sorts reps by due time, cuts them into phaseSlices runs of
// equal length, and returns the median over the runs of f applied to the
// run's TTFT and ITL samples (see latencies).
func slicedMedian(reps []*reply, f func(ttft, itl []float64) float64) float64 {
	s := append([]*reply(nil), reps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].due.Before(s[j].due) })
	var xs []float64
	for i := 0; i < phaseSlices; i++ {
		if part := s[i*len(s)/phaseSlices : (i+1)*len(s)/phaseSlices]; len(part) > 0 {
			ttft, itl, _ := latencies(part)
			xs = append(xs, f(ttft, itl))
		}
	}
	return median(xs)
}

// tokensIn counts token events that arrived in [from, to).
func tokensIn(reps []*reply, from, to time.Time) int {
	n := 0
	for _, r := range reps {
		for _, t := range r.events {
			if !t.Before(from) && t.Before(to) {
				n++
			}
		}
	}
	return n
}
