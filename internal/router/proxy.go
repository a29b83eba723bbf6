// Request proxying: the failover core. The router buffers the request
// body once, computes the ring's preference order, and walks it until a
// replica delivers. What makes the walk safe is the serving stack's
// determinism contract — any replica produces byte-identical output for a
// given request body — so a retry is not a "hope it's similar" but a
// literal continuation:
//
//   - Non-streaming attempts buffer the upstream response fully before a
//     byte reaches the client, so a replica dying mid-response is invisible:
//     the next candidate re-answers and the client sees one clean reply.
//   - Streaming attempts forward token events as they arrive; when a
//     stream breaks after k tokens, the next candidate replays the request
//     and the router drops every event with index < k, resuming the
//     client's stream exactly where it stopped. The assembled reply is
//     byte-identical to a single-replica run.
//
// Status-code semantics: 429/503 mean "alive but not admitting" — that is
// spill (try the next ring successor), never a breaker failure. Transport
// errors, 5xx and broken streams feed the breaker and count as failover.
// Other 4xx are deterministic request defects: every replica would answer
// the same, so the first answer is passed through.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/serve"
)

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeUpstream relays a buffered upstream reply to the client.
func writeUpstream(w http.ResponseWriter, code int, contentType string, body []byte) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// noteRetryAfter records a replica's Retry-After back-off hint (seconds)
// and folds it into the fleet-wide max the stats surface reports. Returns
// the header value unchanged so callers can relay it.
func (rt *Router) noteRetryAfter(h string) string {
	if h == "" {
		return ""
	}
	if s, err := strconv.ParseInt(strings.TrimSpace(h), 10, 64); err == nil && s > 0 {
		rt.count(func(st *routerStats) {
			if s > st.retryAfterHintS {
				st.retryAfterHintS = s
			}
		})
	}
	return h
}

func (rt *Router) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	rt.inflight.Add(1)
	defer rt.inflight.Done()
	if rt.draining.Load() {
		rt.count(func(s *routerStats) { s.rejected++ })
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req serve.GenerateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	rt.count(func(s *routerStats) { s.requests++ })
	// The attempt sequence is the ring's preference order, walked Passes
	// times: affinity target, then spill successors, then (if everything
	// failed once) the whole ring again.
	ringOrder := rt.ring.order(rt.routingKey(req))
	order := make([]int, 0, len(ringOrder)*rt.opts.Passes)
	for p := 0; p < rt.opts.Passes; p++ {
		order = append(order, ringOrder...)
	}
	if req.Stream || r.URL.Query().Get("stream") == "1" {
		rt.proxyStream(w, r, body, order)
		return
	}
	rt.proxyBuffered(w, r, body, order)
}

// routingKey computes the request's position on the ring: the prefixkey
// hash of its page-aligned token prefix. Text prompts are tokenized with
// the same synthetic vocabulary the replicas use (its size comes from
// /healthz), so the router's key and the replica's prefix-cache key agree
// for both request forms; if the vocabulary is not known yet (no probe has
// succeeded) the raw prompt bytes still give stable same-prompt affinity.
func (rt *Router) routingKey(req serve.GenerateRequest) uint64 {
	if len(req.Tokens) > 0 {
		return routeKey(req.Tokens, rt.opts.PageRows)
	}
	if v := rt.vocabulary(); v != nil {
		if ids, err := v.Encode(strings.Fields(req.Prompt)); err == nil && len(ids) > 0 {
			return routeKey(ids, rt.opts.PageRows)
		}
	}
	return routeKeyString(req.Prompt)
}

// vocabulary lazily builds (and caches) the replicas' synthetic
// vocabulary from the probed model identity.
func (rt *Router) vocabulary() *data.Vocabulary {
	if v := rt.vocab.Load(); v != nil {
		return v
	}
	info := rt.model.Load()
	if info == nil || info.Vocab <= 0 {
		return nil
	}
	rt.vocab.CompareAndSwap(nil, data.NewVocabulary(info.Vocab))
	return rt.vocab.Load()
}

// proxyBuffered serves a non-streaming generate: walk the ring order,
// buffer the first complete answer, deliver it. No byte reaches the
// client before a full upstream reply is in hand, so every failure mode —
// refused connection, 5xx, a response cut mid-body — is retried
// invisibly.
//
//aptq:wallclock
func (rt *Router) proxyBuffered(w http.ResponseWriter, r *http.Request, body []byte, order []int) {
	var lastCode int
	var lastBody []byte
	var lastRetryAfter string
	failedOver := false
	for _, idx := range order {
		if r.Context().Err() != nil {
			return // client gone; nothing to deliver to
		}
		rep := rt.replicas[idx]
		if !rep.admit(time.Now()) {
			rep.countSpill()
			rt.count(func(s *routerStats) { s.spills++ })
			continue
		}
		rep.countRequest()
		code, contentType, respBody, retryAfter, err := rt.attempt(r.Context(), rep, body)
		if err != nil {
			rep.reportFailure(time.Now(), rt.opts.EjectAfter, rt.opts.BackoffMin, rt.opts.BackoffMax)
			rt.count(func(s *routerStats) { s.retries++ })
			failedOver = true
			continue
		}
		switch {
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			// Saturated or draining: spill to the next ring successor. The
			// replica answered, so its breaker stays closed. Its Retry-After
			// hint is kept: if the whole fleet turns out to be shedding, the
			// client gets the replicas' own back-off advice, not a router guess.
			if code == http.StatusServiceUnavailable {
				rep.markDraining()
			}
			rep.countSpill()
			rt.count(func(s *routerStats) { s.spills++ })
			lastCode, lastBody = code, respBody
			lastRetryAfter = rt.noteRetryAfter(retryAfter)
			continue
		case code >= 500:
			rep.reportFailure(time.Now(), rt.opts.EjectAfter, rt.opts.BackoffMin, rt.opts.BackoffMax)
			rt.count(func(s *routerStats) { s.retries++ })
			failedOver = true
			lastCode, lastBody = code, respBody
			continue
		}
		// 2xx, or a 4xx every replica would answer identically: deliver.
		rep.reportSuccess()
		if failedOver {
			rt.count(func(s *routerStats) { s.failovers++ })
		}
		writeUpstream(w, code, contentType, respBody)
		return
	}
	rt.count(func(s *routerStats) { s.errors++ })
	if lastCode != 0 {
		// Every replica is saturated/draining/broken: relay the most recent
		// upstream verdict (e.g. a fleet-wide 429) rather than inventing one,
		// Retry-After hint included.
		if lastRetryAfter != "" {
			w.Header().Set("Retry-After", lastRetryAfter)
		}
		writeUpstream(w, lastCode, "application/json", lastBody)
		return
	}
	httpError(w, http.StatusBadGateway, "no replica available")
}

// attempt performs one fully-buffered upstream call. A response cut
// mid-body returns an error (not a partial reply), which is what keeps
// mid-response replica death retryable.
func (rt *Router) attempt(parent context.Context, rep *replica, body []byte) (code int, contentType string, respBody []byte, retryAfter string, err error) {
	ctx, cancel := context.WithTimeout(parent, rt.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, "", nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, "", err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b, resp.Header.Get("Retry-After"), nil
}

// proxyStream serves a streaming generate with mid-stream failover. Token
// events are forwarded verbatim as they arrive; `delivered` counts how
// many the client has. When a stream dies, the next candidate replays the
// whole request and relay drops events with index < delivered — the
// client's stream resumes seamlessly, and because replicas are
// bit-identical the spliced stream equals the one a single healthy
// replica would have sent.
//
//aptq:wallclock
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, body []byte, order []int) {
	flusher, _ := w.(http.Flusher)
	delivered := 0
	headersSent := false
	var lastCode int
	var lastBody []byte
	var lastRetryAfter string
	failedOver := false
	for _, idx := range order {
		if r.Context().Err() != nil {
			return
		}
		rep := rt.replicas[idx]
		if !rep.admit(time.Now()) {
			rep.countSpill()
			rt.count(func(s *routerStats) { s.spills++ })
			continue
		}
		rep.countRequest()
		ctx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
		// ?stream=1 explicitly: the client may have asked for a stream via
		// the query form rather than the body flag, and the forwarded body
		// alone would get a plain JSON reply the relay cannot parse.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/generate?stream=1", bytes.NewReader(body))
		if err != nil {
			cancel()
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			rep.reportFailure(time.Now(), rt.opts.EjectAfter, rt.opts.BackoffMin, rt.opts.BackoffMax)
			rt.count(func(s *routerStats) { s.retries++ })
			failedOver = true
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			cancel()
			switch {
			case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
				if resp.StatusCode == http.StatusServiceUnavailable {
					rep.markDraining()
				}
				rep.countSpill()
				rt.count(func(s *routerStats) { s.spills++ })
				lastCode, lastBody = resp.StatusCode, b
				lastRetryAfter = rt.noteRetryAfter(resp.Header.Get("Retry-After"))
				continue
			case resp.StatusCode >= 500:
				rep.reportFailure(time.Now(), rt.opts.EjectAfter, rt.opts.BackoffMin, rt.opts.BackoffMax)
				rt.count(func(s *routerStats) { s.retries++ })
				failedOver = true
				lastCode, lastBody = resp.StatusCode, b
				continue
			default:
				// Deterministic 4xx: same on every replica, pass through. The
				// stream has not started, so a plain reply is still possible.
				rep.reportSuccess()
				writeUpstream(w, resp.StatusCode, resp.Header.Get("Content-Type"), b)
				return
			}
		}
		if !headersSent {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			headersSent = true
		}
		if failedOver && delivered > 0 {
			rt.count(func(s *routerStats) { s.streamResumes++ })
		}
		done, _ := rt.relay(w, flusher, resp.Body, &delivered)
		resp.Body.Close()
		cancel()
		if done {
			rep.reportSuccess()
			if failedOver {
				rt.count(func(s *routerStats) { s.failovers++ })
			}
			return
		}
		// Mid-stream death (hangup, timeout, or an upstream error event —
		// e.g. a replica force-closing on an expired drain): breaker-counted,
		// resume on the next candidate.
		rep.reportFailure(time.Now(), rt.opts.EjectAfter, rt.opts.BackoffMin, rt.opts.BackoffMax)
		rt.count(func(s *routerStats) { s.retries++ })
		failedOver = true
	}
	rt.count(func(s *routerStats) { s.errors++ })
	if headersSent {
		// The stream already started; the SSE channel is the only way left
		// to signal. Emit a terminal error event in the final-event shape.
		b, _ := json.Marshal(serve.GenerateResponse{Tokens: []int{}, FinishReason: "error", Error: "router: all replicas failed mid-stream"})
		fmt.Fprintf(w, "data: %s\n\n", b)
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	if lastCode != 0 {
		if lastRetryAfter != "" {
			w.Header().Set("Retry-After", lastRetryAfter)
		}
		writeUpstream(w, lastCode, "application/json", lastBody)
		return
	}
	httpError(w, http.StatusBadGateway, "no replica available")
}

// relay forwards one upstream SSE stream to the client, deduplicating by
// token index: events with index < *delivered were already sent by an
// earlier attempt and are dropped; the rest are forwarded verbatim (the
// determinism contract makes the bytes interchangeable across replicas).
// Returns done=true when the final event (the complete-response payload,
// recognizable by its finish_reason field) has been forwarded.
func (rt *Router) relay(w http.ResponseWriter, flusher http.Flusher, upstream io.Reader, delivered *int) (done bool, err error) {
	sc := bufio.NewScanner(upstream)
	sc.Buffer(make([]byte, 0, 64<<10), serve.MaxRequestBytes)
	for sc.Scan() {
		line := sc.Bytes()
		payload, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue // blank separators, comments
		}
		var probe struct {
			Index        *int    `json:"index"`
			FinishReason *string `json:"finish_reason"`
			Error        string  `json:"error"`
		}
		if err := json.Unmarshal(payload, &probe); err != nil {
			return false, fmt.Errorf("router: bad stream event: %w", err)
		}
		switch {
		case probe.FinishReason != nil:
			if probe.Error != "" || *probe.FinishReason == string(serve.FinishError) {
				// The replica failed the request (e.g. force-closed by an
				// expired drain). Deterministic replicas make this retryable:
				// don't forward, resume elsewhere.
				return false, fmt.Errorf("router: upstream error event: %s", probe.Error)
			}
			_, _ = w.Write(line)
			_, _ = w.Write([]byte("\n\n"))
			if flusher != nil {
				flusher.Flush()
			}
			return true, nil
		case probe.Index != nil:
			if *probe.Index >= *delivered {
				_, _ = w.Write(line)
				_, _ = w.Write([]byte("\n\n"))
				if flusher != nil {
					flusher.Flush()
				}
				*delivered = *probe.Index + 1
			}
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return false, io.ErrUnexpectedEOF // stream ended without a final event
}
