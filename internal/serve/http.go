// HTTP surface of the serving stack: the request/response wire types and
// the handler that binds a Scheduler to POST /v1/generate, GET /v1/stats
// and GET /healthz. Extracted from cmd/aptq-serve so the multi-replica
// router (internal/router) and the in-process multi-replica tests can run
// real replica servers without forking processes: a replica is exactly
// this handler over its own Scheduler, whether it lives behind
// aptq-serve's listener or an httptest server.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/model"
)

// MaxRequestBytes bounds a POST /v1/generate body, at a replica and at the
// router; generate requests are a prompt and a handful of scalars. A
// larger body is answered 400 before anything reaches the scheduler.
const MaxRequestBytes = 1 << 20

// GenerateRequest is the JSON body of POST /v1/generate. Exactly one of
// Prompt (whitespace-tokenized words of the synthetic vocabulary) or
// Tokens (raw ids) supplies the prompt.
type GenerateRequest struct {
	ID          string  `json:"id,omitempty"`
	Prompt      string  `json:"prompt,omitempty"`
	Tokens      []int   `json:"tokens,omitempty"`
	MaxTokens   int     `json:"max_tokens"`
	Temperature float64 `json:"temperature"`
	Seed        int64   `json:"seed"`
	Stop        []int   `json:"stop,omitempty"`
	// Stream switches the reply to Server-Sent Events (same as ?stream=1):
	// one event per generated token, then a final event with the complete
	// response. Streaming never changes the generated tokens.
	Stream bool `json:"stream,omitempty"`
	// Priority orders admission under contention (higher first); it never
	// affects the reply's content.
	Priority int `json:"priority,omitempty"`
	// DeadlineMs bounds the request's total latency: past the deadline the
	// scheduler stops decoding, frees the slot, and the reply carries
	// finish_reason "deadline_exceeded" with the tokens generated so far.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// GenerateResponse is the JSON reply of POST /v1/generate (and the payload
// of a stream's final event).
type GenerateResponse struct {
	ID           string `json:"id,omitempty"`
	Tokens       []int  `json:"tokens"`
	Text         string `json:"text"`
	FinishReason string `json:"finish_reason"`
	Error        string `json:"error,omitempty"`
}

// StreamEvent is one per-token SSE event of a streaming generate. Index is
// the token's position in the generated sequence — the field the router's
// failover resume dedups on when it replays a broken stream on another
// replica.
type StreamEvent struct {
	Token int    `json:"token"`
	Text  string `json:"text"`
	Index int    `json:"index"`
}

// Server binds a Scheduler to the HTTP surface. Construct with NewServer;
// Handler returns the mux aptq-serve (or an httptest replica) listens on.
type Server struct {
	m        *model.Model
	vocab    *data.Vocabulary
	sched    *Scheduler
	draining atomic.Bool  // set before Drain; /healthz reports 503
	panics   atomic.Int64 // handler panics caught by the recover middleware
}

// NewServer builds a Server over a fresh Scheduler on m.
func NewServer(m *model.Model, opts Options) *Server {
	return &Server{m: m, vocab: data.NewVocabulary(m.Cfg.Vocab), sched: New(m, opts)}
}

// Scheduler exposes the underlying scheduler (stats, drain, close).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Model returns the served model.
func (s *Server) Model() *model.Model { return s.m }

// Vocab returns the synthetic vocabulary the text-prompt path encodes
// with.
func (s *Server) Vocab() *data.Vocabulary { return s.vocab }

// SetDraining flips the /healthz readiness signal: a draining server
// reports 503 so load balancers (and the router's health prober) stop
// routing to it ahead of a graceful shutdown. It does not by itself stop
// the scheduler — callers pair it with Scheduler().Drain / DrainFor.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports the /healthz readiness state.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains and closes the underlying scheduler.
func (s *Server) Close() { s.sched.Close() }

// Handler returns the HTTP mux: POST /v1/generate, GET /v1/stats,
// GET /healthz. Every route runs under the panic-isolation middleware:
// a handler panic is confined to its own request — 500 to that client,
// the `panics` stat bumped — and never takes down the listener or any
// concurrent request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return s.recovered(mux)
}

// recovered wraps h so a panic in any handler is caught, counted, and
// answered with a 500 instead of crashing the process. If the handler
// already wrote its status line (e.g. a panic mid-stream), the recovery
// can only close the connection — net/http does that when the handler
// returns after a partial write without Content-Length.
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				httpError(w, http.StatusInternalServerError, "internal error: %v", rec)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req GenerateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	prompt := req.Tokens
	if req.Prompt != "" {
		if len(prompt) != 0 {
			httpError(w, http.StatusBadRequest, "give either prompt or tokens, not both")
			return
		}
		ids, err := s.vocab.Encode(strings.Fields(req.Prompt))
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		prompt = ids
	}
	if len(prompt) == 0 {
		httpError(w, http.StatusBadRequest, "empty prompt")
		return
	}
	for _, tok := range append(append([]int{}, prompt...), req.Stop...) {
		if tok < 0 || tok >= s.m.Cfg.Vocab {
			httpError(w, http.StatusBadRequest, "token %d outside vocabulary [0,%d)", tok, s.m.Cfg.Vocab)
			return
		}
	}
	if len(prompt) > s.m.Cfg.MaxSeq {
		httpError(w, http.StatusBadRequest, "prompt of %d tokens exceeds context %d", len(prompt), s.m.Cfg.MaxSeq)
		return
	}
	maxTokens := req.MaxTokens
	if maxTokens <= 0 {
		maxTokens = 16
	}
	// The request context carries both cancellation signals: the client
	// disconnecting (r.Context) and the optional per-request deadline.
	// Either one cancels decoding at the next scheduler tick, freeing the
	// slot instead of decoding the abandoned request to its budget.
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	ticket, err := s.sched.Submit(Request{
		ID:          req.ID,
		Prompt:      prompt,
		MaxTokens:   maxTokens,
		Temperature: req.Temperature,
		Seed:        req.Seed,
		Stop:        req.Stop,
		Ctx:         ctx,
		Priority:    req.Priority,
	})
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverBudget):
		// Shed load with an explicit retry hint: a full queue drains within
		// about a tick's worth of completions, so "1" second is an honest
		// earliest-retry for well-behaved clients (the router relays it).
		// An over-budget request can never be admitted, but the same hint
		// keeps the shed path uniform for clients that resubmit smaller.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if req.Stream || r.URL.Query().Get("stream") == "1" {
		s.streamGenerate(w, ticket)
		return
	}
	// The ticket always resolves — on completion, or within one tick of the
	// context dying — so a plain wait cannot leak the handler.
	res := ticket.Wait()
	if res.Err != nil {
		httpError(w, http.StatusInternalServerError, "%v", res.Err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.response(res))
}

// response renders a scheduler result as the generate reply body.
func (s *Server) response(res Result) GenerateResponse {
	tokens := res.Tokens
	if tokens == nil {
		tokens = []int{}
	}
	out := GenerateResponse{
		ID:           res.ID,
		Tokens:       tokens,
		Text:         s.vocab.Decode(tokens),
		FinishReason: string(res.FinishReason),
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	return out
}

// streamGenerate writes the SSE form of a generate reply: one `data:`
// event per token as the scheduler decodes it, then a final `data:` event
// whose payload is byte-identical to the non-streaming response body —
// so a client (or the CI smoke test) can assemble the stream and check it
// against the plain reply.
func (s *Server) streamGenerate(w http.ResponseWriter, ticket *Ticket) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	i := 0
	for tok := range ticket.Tokens() {
		b, _ := json.Marshal(StreamEvent{Token: tok, Text: s.vocab.Word(tok), Index: i})
		fmt.Fprintf(w, "data: %s\n\n", b)
		if flusher != nil {
			flusher.Flush()
		}
		i++
	}
	res := ticket.Wait()
	b, _ := json.Marshal(s.response(res))
	fmt.Fprintf(w, "data: %s\n\n", b)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"slots":            st.Slots,
		"active":           st.Active,
		"queued":           st.Queued,
		"submitted":        st.Submitted,
		"completed":        st.Completed,
		"prompt_tokens":    st.PromptTokens,
		"generated_tokens": st.GeneratedTokens,
		"kv_cache_bytes":   st.KVCacheBytes,
		// Paged-KV accounting: unique bytes count every in-use page once
		// however many slots and cache entries share it; logical bytes are
		// what the same references would cost without sharing (the memcpy
		// memory model); sharing_ratio = logical/unique; pages the unique
		// in-use page count.
		"kv_unique_bytes":  st.KVUniqueBytes,
		"kv_logical_bytes": st.KVLogicalBytes,
		"kv_pages":         st.KVPages,
		"kv_sharing_ratio": st.KVSharingRatio(),
		"prefill_chunk":    st.PrefillChunk,
		"ttft_count":       st.TTFTSamples,
		"ttft_p50_ms":      float64(st.TTFTp50) / float64(time.Millisecond),
		"ttft_p99_ms":      float64(st.TTFTp99) / float64(time.Millisecond),
		// Inter-token latency: the gap between consecutively streamed
		// tokens of a request — the cadence an interactive client sees.
		"itl_count":  st.ITLSamples,
		"itl_p50_ms": float64(st.ITLp50) / float64(time.Millisecond),
		"itl_p99_ms": float64(st.ITLp99) / float64(time.Millisecond),
		// Admission-control counters: requests finished by context
		// cancellation / deadline expiry, Submits shed with 429 under the
		// -max-queue bound, drains that expired their timeout, and whether
		// the scheduler is draining (1/0).
		"cancelled":         st.Cancelled,
		"deadline_exceeded": st.DeadlineExceeded,
		"rejected":          st.Rejected,
		"drain_timeouts":    st.DrainTimeouts,
		"max_queue":         st.MaxQueue,
		"draining":          boolToInt(st.Draining),
		// Prefix/KV cache counters (all zero unless -prefix-cache is set):
		// hits/misses count admissions whose prompt did/did not start with a
		// cached chunk, hit_rate their ratio, hit_tokens the prompt tokens
		// whose prefill was skipped, bytes/entries the current residency and
		// evictions the entries dropped under byte pressure.
		"prefix_cache_hits":       st.PrefixCacheHits,
		"prefix_cache_misses":     st.PrefixCacheMisses,
		"prefix_cache_hit_rate":   st.PrefixCacheHitRate(),
		"prefix_cache_hit_tokens": st.PrefixCacheHitTokens,
		"prefix_cache_bytes":      st.PrefixCacheBytes,
		"prefix_cache_entries":    st.PrefixCacheEntries,
		"prefix_cache_evictions":  st.PrefixCacheEvictions,
		// Memory-pressure counters (all zero unless -kv-budget-mb bounds the
		// pool): preemptions is slots evicted mid-decode to unstarve others,
		// admission_deferred is queue entries skipped for lack of page
		// headroom, kv_budget_bytes the configured bound (0 = unbounded) and
		// kv_high_water_bytes the pool's peak residency — never above the
		// budget, the invariant the pressure tests pin. panics counts
		// recovered per-request panics (scheduler slots + HTTP handlers).
		"preemptions":         st.Preemptions,
		"admission_deferred":  st.AdmissionDeferred,
		"panics":              st.Panics + s.panics.Load(),
		"kv_budget_bytes":     st.KVBudgetBytes,
		"kv_high_water_bytes": st.KVHighWaterBytes,
	})
}

// boolToInt renders a flag as 0/1 so /v1/stats stays a flat numeric map
// (clients decode it into map[string]float64).
func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Unhealthy while draining, so load balancers stop routing here
		// during a graceful redeploy. Retry-After tells pollers when to
		// probe again.
		status, code = "draining", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": status,
		"model":  s.m.Cfg.Name,
		"vocab":  s.m.Cfg.Vocab,
		"maxseq": s.m.Cfg.MaxSeq,
	})
}
