package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// sseHandler answers with tokens as SSE token events and a final event.
func writeSSE(w http.ResponseWriter, tokens []int) {
	w.Header().Set("Content-Type", "text/event-stream")
	for i, tok := range tokens {
		fmt.Fprintf(w, "data: {\"token\":%d,\"text\":\"w\",\"index\":%d}\n\n", tok, i)
		w.(http.Flusher).Flush()
	}
	fmt.Fprintf(w, "data: {\"tokens\":%s,\"text\":\"\",\"finish_reason\":\"length\"}\n\n", jsonInts(tokens))
}

func jsonInts(xs []int) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s + "]"
}

// The generator charges a request from its due time, so a request sent
// late because the generator stalled carries the stall in its TTFT.
func TestLatenciesCountFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	r := &reply{due: due, sent: due.Add(50 * time.Millisecond), status: http.StatusOK,
		events: []time.Time{due.Add(60 * time.Millisecond)}}
	ttft, _, late := latencies([]*reply{r})
	if ttft[0] != 60 || late[0] != 50 {
		t.Fatalf("ttft %v late %v, want 60 and 50", ttft[0], late[0])
	}
}

// One stalled request on a server that handles one request at a time
// must raise the TTFT of every request due behind it.
func TestOpenLoopStallRaisesLaterTTFT(t *testing.T) {
	const stall = 150 * time.Millisecond
	var mu sync.Mutex
	first := true
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		writeSSE(w, []int{1, 2})
	})
	c := &client{h: h, tg: &tracing{}}
	at := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	t0 := time.Now()
	reps := c.openLoop(context.Background(), t0, at, make([][]byte, len(at)), 1)
	ttft, _, _ := latencies(reps)
	for i := 1; i < len(at); i++ {
		if floor := ms(stall - at[i]); ttft[i] < floor {
			t.Errorf("request %d due at %v: ttft %.1fms, want >= %.1fms behind the stall", i, at[i], ttft[i], floor)
		}
		if d := reps[i].streamDefect(2); d != "" {
			t.Errorf("request %d: %s", i, d)
		}
	}
}

func TestRecorderAssemblesEventsAcrossWrites(t *testing.T) {
	rep := &reply{}
	w := newRecorder(rep)
	stream := "data: {\"token\":7,\"index\":0}\n\ndata: {\"token\":9,\"index\":1}\n\ndata: {\"tokens\":[7,9],\"finish_reason\":\"length\"}\n\n"
	for i := 0; i < len(stream); i += 5 { // split events across writes
		w.Write([]byte(stream[i:min(i+5, len(stream))]))
	}
	if d := rep.streamDefect(2); d != "" {
		t.Fatalf("defect %q in a well-formed stream", d)
	}
	if len(rep.events) != 2 {
		t.Fatalf("%d token events, want 2", len(rep.events))
	}
}

func TestRecorderFlagsMismatchedFinalTokens(t *testing.T) {
	rep := &reply{}
	w := newRecorder(rep)
	w.Write([]byte("data: {\"token\":7,\"index\":0}\n\ndata: {\"tokens\":[8],\"finish_reason\":\"length\"}\n\n"))
	if rep.streamDefect(1) == "" {
		t.Fatal("token events [7] against final tokens [8] not flagged")
	}
	rep = &reply{}
	w = newRecorder(rep)
	w.Write([]byte("data: {\"token\":7,\"index\":1}\n\n"))
	if rep.bad == "" {
		t.Fatal("a skipped token index not flagged")
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { writeSSE(w, []int{3}) })
	c := &client{h: h, tg: &tracing{}}
	deadline := time.Now().Add(30 * time.Millisecond)
	reps := c.closedLoop(context.Background(), deadline, 2, make([][]byte, 3), 1)
	if len(reps) == 0 {
		t.Fatal("no requests sent")
	}
	for _, r := range reps {
		if !r.due.Before(deadline) {
			t.Fatalf("request started at %v, not before the deadline %v", r.due, deadline)
		}
		if d := r.streamDefect(1); d != "" {
			t.Fatal(d)
		}
	}
}

// A streak of slow replies that covers a minority of the phase's slices
// does not move a sliced metric, whatever order the replies come in.
func TestSlicedMedianIgnoresMinorityStreak(t *testing.T) {
	t0 := time.Unix(100, 0)
	var reps []*reply
	for i := 0; i < 10*phaseSlices; i++ {
		ttft := 5 * time.Millisecond
		if i < 20 { // the first two slices of ten replies each
			ttft = 50 * time.Millisecond
		}
		due := t0.Add(time.Duration(i) * time.Second)
		reps = append(reps, &reply{due: due, sent: due, status: http.StatusOK, events: []time.Time{due.Add(ttft)}})
	}
	// Reverse the slice order so the function has to sort by due time.
	for i, j := 0, len(reps)-1; i < j; i, j = i+1, j-1 {
		reps[i], reps[j] = reps[j], reps[i]
	}
	got := slicedMedian(reps, func(ttft, _ []float64) float64 { return percentile(ttft, 90) })
	if got != 5 {
		t.Fatalf("sliced TTFT p90 %v ms, want 5", got)
	}
}

// The closed-loop pool walks the shared prefixes round-robin, so the
// requests in flight at any moment spread over the prefixes, and with
// them over the replicas, as the prefixes do.
func TestClosedPoolPrefixesRoundRobin(t *testing.T) {
	w, _ := findWorkload("prefix-fleet")
	p := makePlan(w, modelConfig().Vocab, 7, time.Second)
	prefix := func(i int) []int { return p.closed[i].req.Prompt[:w.prefixLen] }
	for i := 0; i+w.prefixes < len(p.closed); i++ {
		if !equalInts(prefix(i), prefix(i+w.prefixes)) {
			t.Fatalf("requests %d and %d have different prefixes", i, i+w.prefixes)
		}
		if equalInts(prefix(i), prefix(i+1)) {
			t.Fatalf("requests %d and %d share a prefix", i, i+1)
		}
	}
}
