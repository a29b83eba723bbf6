// Package infer provides an incremental-decoding path for the model: a
// KV-cached forward pass that processes one token at a time, plus sampling
// utilities. This is the code path an edge deployment of an APTQ-quantized
// model would actually run — the paper's motivating use case — and it is
// verified token-for-token against the batch forward pass.
package infer

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ErrEmptyPrompt is returned by Prefill (and everything built on it) when
// the prompt has no tokens: there are no logits to return. It replaces the
// previous (nil, nil) result, which forced every caller to pair the call
// with a nil check.
var ErrEmptyPrompt = errors.New("infer: empty prompt")

// kvCache stores the per-block key/value history of one sequence as a
// list of references to fixed-size pages leased from the session's
// KVPagePool. Pages are leased on demand and never moved while referenced,
// so a row slice handed out by kRow/vRow stays valid — the stability
// in-flight attention relies on — even as later appends grow the cache.
// Pages may be shared with other holders (prefix-cache entries, other
// sessions that adopted the same prefix): the cache only ever writes its
// tail page, and a write into a still-shared tail page copies the owned
// row prefix into a fresh exclusive page first (copy-on-write), so shared
// bytes never change underneath another reader.
type kvCache struct {
	dim   int
	rows  int // rows per page (pool granularity)
	pool  *KVPagePool
	pages []*kvPage // page i holds rows [i*rows, (i+1)*rows)
	len   int       // valid rows
}

func newKVCache(pool *KVPagePool) *kvCache {
	return &kvCache{dim: pool.dim, rows: pool.rows, pool: pool}
}

// kRow and vRow return mutable views of row t (t < len for reads; t == len
// is valid immediately after grow).
func (c *kvCache) kRow(t int) []float64 { return c.pages[t/c.rows].k.Row(t % c.rows) }
func (c *kvCache) vRow(t int) []float64 { return c.pages[t/c.rows].v.Row(t % c.rows) }

// grow makes row index c.len writable: at a page boundary past the leased
// pages it leases a fresh (exclusive) page from the pool, and when the
// write would land in a page that is still shared with another holder —
// only possible after a rollback into adopted pages — it first copies the
// rows this cache still owns into a fresh exclusive page (copy-on-write,
// tail page only), so a full, shared page is immutable for as long as
// anyone else references it.
func (c *kvCache) grow() {
	if c.len == len(c.pages)*c.rows {
		c.pages = append(c.pages, c.pool.get()) //aptq:ignore noalloc KV cache grows by fixed pages: amortized O(1/PageRows) per token and free-list recycled, pinned by the steady-state alloc tests
		return
	}
	pi := c.len / c.rows
	tail := c.pages[pi]
	if tail.refs.Load() > 1 {
		fresh := c.pool.get()
		for r := 0; r < c.len%c.rows; r++ {
			copy(fresh.k.Row(r), tail.k.Row(r))
			copy(fresh.v.Row(r), tail.v.Row(r))
		}
		c.pages[pi] = fresh
		c.pool.release(tail)
	}
}

// reserve makes rows [c.len, c.len+n) writable up front: it leases every
// page the write range needs and copy-on-writes any still-shared page in
// that range, so the grow calls issued later by the forward pass are
// guaranteed no-ops. All budget failures therefore surface here — before
// any compute runs or any row is written — which is what makes
// ErrPoolExhausted retryable: a failed reserve releases the pages it
// leased in this call and leaves the cache exactly as it found it.
//
//aptq:noalloc
func (c *kvCache) reserve(n int) error {
	if n <= 0 {
		return nil
	}
	// Copy-on-write every shared page the write range touches. Only the
	// first page can hold rows this cache still owns (c.len % rows of
	// them); later shared pages (warm capacity left by a rollback into
	// adopted pages) are replaced outright.
	first := c.len / c.rows
	last := (c.len + n - 1) / c.rows
	for pi := first; pi <= last && pi < len(c.pages); pi++ {
		pg := c.pages[pi]
		if pg.refs.Load() == 1 {
			continue
		}
		fresh, err := c.pool.lease()
		if err != nil {
			return err // already-copied pages hold identical bytes; nothing to undo
		}
		if pi == first {
			for r := 0; r < c.len%c.rows; r++ {
				copy(fresh.k.Row(r), pg.k.Row(r))
				copy(fresh.v.Row(r), pg.v.Row(r))
			}
		}
		c.pages[pi] = fresh
		c.pool.release(pg)
	}
	leased0 := len(c.pages)
	for len(c.pages)*c.rows < c.len+n {
		pg, err := c.pool.lease()
		if err != nil {
			for _, p := range c.pages[leased0:] {
				c.pool.release(p)
			}
			c.pages = c.pages[:leased0]
			return err
		}
		c.pages = append(c.pages, pg) //aptq:ignore noalloc KV cache grows by fixed pages: amortized O(1/PageRows) per token and free-list recycled, pinned by the steady-state alloc tests
	}
	return nil
}

// releaseWarm returns pages holding no valid rows (reserved or left warm
// by a rollback) to the pool — the cross-block cleanup of a reservation
// that failed in a later block, so a starved session does not sit on
// budget it cannot use.
func (c *kvCache) releaseWarm() {
	keep := (c.len + c.rows - 1) / c.rows
	for _, pg := range c.pages[keep:] {
		c.pool.release(pg)
	}
	for i := keep; i < len(c.pages); i++ {
		c.pages[i] = nil
	}
	c.pages = c.pages[:keep]
}

// appendRows bulk-appends the corresponding rows of k and v (T x dim) —
// the chunked-prefill form of the grow/copy/len++ sequence Step runs per
// token, writing the exact same bytes to the exact same rows.
func (c *kvCache) appendRows(k, v *tensor.Mat) {
	for t := 0; t < k.Rows; t++ {
		c.grow()
		copy(c.kRow(c.len), k.Row(t))
		copy(c.vRow(c.len), v.Row(t))
		c.len++
	}
}

// truncate rolls the cache back to n valid rows — the Prefill
// error-rollback path. Leased pages are kept (warm capacity; a later
// regrow that lands in a still-shared page copies on write), so rollback
// never invalidates concurrently shared pages.
func (c *kvCache) truncate(n int) {
	if n < c.len {
		c.len = n
	}
}

// releaseAll returns every page reference to the pool — the Reset path. A
// page whose last holder this was lands on the pool free list and is
// reused by later growth, so a recycled scheduler slot leases warm pages
// instead of allocating.
func (c *kvCache) releaseAll() {
	for i, pg := range c.pages {
		c.pool.release(pg)
		c.pages[i] = nil
	}
	c.pages = c.pages[:0]
	c.len = 0
}

// bytes reports the logical size of the referenced pages — what this
// sequence would occupy if every page were private. Shared pages are
// counted by every referencing cache; the pool's UniqueBytes counts them
// once.
func (c *kvCache) bytes() int {
	return len(c.pages) * int(c.pool.PageBytes())
}

// Session is an incremental decoding session over a fixed model. It is not
// safe for concurrent use.
type Session struct {
	m *model.Model
	// pool is the KV page pool the caches lease pages from. NewSession
	// gives each session a private pool; NewSessionPooled shares one pool
	// across sessions so full prefix pages can be adopted by reference
	// (SharePages/AdoptPages in pagepool.go).
	pool   *KVPagePool
	caches []*kvCache
	pos    int
	// kvQuant, when non-nil, fake-quantizes each key/value row as it
	// enters the cache — KV-cache quantization, the other large memory
	// consumer on edge devices beside the weights. Per-row (per-token,
	// per-layer) dynamic grids.
	kvQuant *quant.ActQuantizer
	// scratch is the reusable arena of the block forward (prefill.go),
	// sized on first use and kept across Reset so a recycled scheduler
	// slot allocates nothing per chunk or per token in steady state.
	scratch *chunkScratch
	// tok backs the one-token slice Step hands to Append.
	tok [1]int
}

// NewSession creates a decoding session with empty caches over a private
// page pool. Sessions that should share KV pages (the serving scheduler's
// slots and its prefix cache) use NewSessionPooled instead.
func NewSession(m *model.Model) *Session {
	return NewSessionPooled(m, NewPagePool(m.Cfg.Dim, m.Cfg.MaxSeq), 0)
}

// NewSessionPooled creates a decoding session whose KV caches lease pages
// from the given shared pool; kvBits > 0 additionally stores the KV cache
// at that bit width (see NewSessionKVQuant). All sessions over one pool
// must share the model's Dim and MaxSeq — the pool's page shape.
func NewSessionPooled(m *model.Model, pool *KVPagePool, kvBits int) *Session {
	s := &Session{m: m, pool: pool}
	for range m.Blocks {
		s.caches = append(s.caches, newKVCache(pool))
	}
	if kvBits > 0 {
		s.kvQuant = newKVQuantizer(kvBits)
	}
	return s
}

// NewSessionKVQuant creates a decoding session whose KV cache is stored at
// the given bit width (e.g. 4 for a 4-bit KV cache).
func NewSessionKVQuant(m *model.Model, kvBits int) *Session {
	s := NewSession(m)
	s.kvQuant = newKVQuantizer(kvBits)
	return s
}

// Pool returns the page pool the session's KV caches lease from.
func (s *Session) Pool() *KVPagePool { return s.pool }

// newKVQuantizer builds the per-token dynamic quantizer KV-cache
// quantization uses.
func newKVQuantizer(kvBits int) *quant.ActQuantizer {
	return &quant.ActQuantizer{Bits: kvBits, PerToken: true}
}

// Pos returns the number of tokens consumed so far.
func (s *Session) Pos() int { return s.pos }

// Reset clears the caches for a new sequence, releasing every page
// reference back to the pool. Pages this session was the last holder of
// land on the pool's free list and are leased again by later growth, so a
// recycled slot in a serving scheduler pays no re-allocation and decodes
// bit-identically to a fresh session.
func (s *Session) Reset() {
	s.pos = 0
	for _, c := range s.caches {
		c.releaseAll()
	}
}

// reserveKV reserves n more rows of KV capacity in every block's cache,
// leasing (and copy-on-writing) all pages the next n appended rows will
// touch. It is the single point where a budgeted pool's ErrPoolExhausted
// surfaces: Step, Append and ImportKV reserve before running any compute,
// so a failed call leaves the session bit-for-bit unchanged and the exact
// same call can be retried once the scheduler frees pages. On failure the
// reservations already made (including pre-existing warm capacity in
// earlier blocks) are released back to the pool, so a starved session
// never sits on budget it cannot use.
//
//aptq:noalloc
func (s *Session) reserveKV(n int) error {
	for i, c := range s.caches {
		if err := c.reserve(n); err != nil {
			for _, done := range s.caches[:i] {
				done.releaseWarm()
			}
			c.releaseWarm()
			return err
		}
	}
	return nil
}

// KVCacheBytes reports the logical KV memory of the session across all
// blocks: the bytes of every page it references, whether or not the page
// is shared with other sessions or the prefix cache. It grows in
// page-sized (PageRows-row) steps with the sequence instead of being
// MaxSeq-sized up front. For the deduplicated resident footprint across
// all sessions of a shared pool, see KVPagePool.Stats().UniqueBytes.
func (s *Session) KVCacheBytes() int {
	n := 0
	for _, c := range s.caches {
		n += c.bytes()
	}
	return n
}

// Prefill consumes a prompt and returns the logits after its last token,
// processing the prompt in DefaultPrefillChunk-sized batched chunks (see
// Append) — bit-identical to feeding the prompt through Step token by
// token, but with matrix-matrix projections, LUT-accelerated packed
// decode and a reusable scratch arena, so time-to-first-token scales with
// the prompt as a handful of block forwards instead of one per token.
//
// An empty prompt returns ErrEmptyPrompt: there is no last token to
// report logits for. On any error the session is rolled back to its
// pre-call state (position and KV caches), so a failed Prefill never
// leaves a half-advanced session with a poisoned cache; previously the
// session kept the tokens consumed before the failure.
func (s *Session) Prefill(prompt []int) (*tensor.Mat, error) {
	return s.PrefillChunked(prompt, DefaultPrefillChunk)
}

// PrefillChunked is Prefill with an explicit chunk size (<= 0 selects
// DefaultPrefillChunk). Results are bit-identical at every chunk size;
// larger chunks amortize dispatch and weight decode better, smaller ones
// bound how much work one call does (the serving scheduler's admission
// knob). The rollback-on-error contract matches Prefill.
//
//aptq:noalloc
func (s *Session) PrefillChunked(prompt []int, chunk int) (*tensor.Mat, error) {
	return s.PrefillChunkedCtx(nil, prompt, chunk)
}

// PrefillChunkedCtx is PrefillChunked with a step-level cancellation
// check: ctx is consulted before each chunk's block forward, so a client
// disconnect or deadline mid-prefill aborts after at most one chunk of
// work instead of running the whole prompt. On cancellation the session
// is rolled back to its pre-call state — the same rollback contract as
// any other prefill error — and ctx.Err() is returned. A nil ctx never
// cancels.
func (s *Session) PrefillChunkedCtx(ctx context.Context, prompt []int, chunk int) (*tensor.Mat, error) {
	if len(prompt) == 0 {
		return nil, ErrEmptyPrompt
	}
	if chunk <= 0 {
		chunk = DefaultPrefillChunk
	}
	pos0 := s.pos
	var logits *tensor.Mat
	for lo := 0; lo < len(prompt); lo += chunk {
		if ctx != nil {
			if err := ctx.Err(); err != nil { //aptq:ignore noalloc Context.Err on std contexts is allocation-free; the dynamic call is opaque to the checker
				s.rewind(pos0)
				return nil, err
			}
		}
		hi := lo + chunk
		if hi > len(prompt) {
			hi = len(prompt)
		}
		l, err := s.Append(prompt[lo:hi])
		if err != nil {
			s.rewind(pos0)
			return nil, err
		}
		logits = l
	}
	// The arena-owned logits row is cloned so callers may hold it across
	// later use of the session (the contract of the pre-chunking Prefill).
	return logits.Clone(), nil //aptq:ignore noalloc documented contract: the logits row is cloned out of the arena once per prefill call
}

// PrefillLoop consumes the prompt one token at a time — the token loop
// the chunked path is checked against and the baseline of the
// BenchmarkPrefill pairs. It is PrefillChunked with a chunk of 1 and
// shares Prefill's contract, including rollback on error and the cloned
// return.
func (s *Session) PrefillLoop(prompt []int) (*tensor.Mat, error) {
	return s.PrefillChunked(prompt, 1)
}

// rewind rolls the session back to pos consumed tokens, truncating every
// block's KV rows past it (page references are kept). Valid only for pos
// <= the current position; appended rows past pos are abandoned.
func (s *Session) rewind(pos int) {
	s.pos = pos
	for _, c := range s.caches {
		c.truncate(pos)
	}
}

// Generate samples n tokens after the prompt at the given temperature
// (0 = greedy argmax) and returns just the generated tokens.
func (s *Session) Generate(rng *rand.Rand, prompt []int, n int, temperature float64) ([]int, error) {
	logits, err := s.Prefill(prompt)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	var sp Sampler
	for len(out) < n {
		tok := sp.Sample(rng, logits.Row(0), temperature)
		out = append(out, tok)
		if len(out) == n {
			break
		}
		logits, err = s.Step(tok)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SampleLogits draws a token from softmax(logits/temperature); a
// temperature of 0 returns the argmax.
//
// Degenerate inputs have explicit behavior instead of panics or silent
// bias: an empty logits slice returns -1 (no valid token); logits that
// are all -Inf — a fully masked distribution — sample uniformly (the
// greedy path returns index 0), matching tensor.Softmax's uniform
// fallback rather than the NaN cascade that previously always yielded the
// last token; and NaN logits are treated as masked (-Inf), so a numerical
// blow-up in one vocab entry can never be selected. All-NaN logits behave
// exactly like all--Inf. Previously a NaN in position 0 made the greedy
// scan (`v > logits[best]`) never update and silently return index 0.
//
// Each call runs on fresh scratch; decode loops that sample every token
// should hold a Sampler instead, which reuses its buffers across calls
// (bit-identically) and keeps the steady state allocation-free.
func SampleLogits(rng *rand.Rand, logits []float64, temperature float64) int {
	var sp Sampler
	return sp.Sample(rng, logits, temperature)
}
