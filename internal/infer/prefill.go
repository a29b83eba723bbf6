// The block forward of a decoding session. Append processes a T x Dim
// chunk of tokens in a single block forward: matrix-matrix projections
// (which route packed weights through the LUT decode kernel and amortize
// each weight-row decode over the whole chunk), causal multi-row
// attention, a bulk KV-cache append, and multi-row RoPE/norms, all through
// a reusable scratch arena so the steady state allocates nothing per
// chunk. Step is the T = 1 case of the same forward, so prompt chunks and
// decode tokens share one implementation and one arena. Per-row results
// do not depend on the chunk size, so the chunked path is bit-identical
// to the token-by-token loop at any chunk size and worker count — the
// property the prefill tests pin down.
package infer

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DefaultPrefillChunk is the prompt chunk size Prefill uses: large enough
// to amortize dispatch and packed weight-row decode across the chunk,
// small enough that a serving scheduler admitting a long prompt
// chunk-by-chunk keeps its decode ticks responsive.
const DefaultPrefillChunk = 16

// chunkScratch is the reusable arena of the block forward: every T x Dim
// (and T x FF) intermediate plus the per-row attention score/probability
// rows, allocated once per session and reused for every prompt chunk and
// every decode Step of every request the session serves.
type chunkScratch struct {
	rows int // current view size
	cap  int // allocated rows

	// Full-capacity backing matrices.
	xb, attnInb, qb, kb, vb, ctxb, projb *tensor.Mat // cap x dim
	h1b, h2b                             *tensor.Mat // cap x ff
	scoresb, probsb                      *tensor.Mat // cap x maxSeq

	// Views of the first rows rows of the backing matrices. The headers
	// are allocated once and re-pointed in place when the chunk size
	// changes (a prompt's final partial chunk, a prefill→decode switch).
	x, attnIn, q, k, v, ctx, proj *tensor.Mat
	h1, h2                        *tensor.Mat
	scores, probs                 *tensor.Mat
	last                          *tensor.Mat // final row of x, 1 x dim

	normed, logits *tensor.Mat // 1 x dim, 1 x vocab
}

func newChunkScratch(cfg model.Config, rows int) *chunkScratch {
	sc := &chunkScratch{
		cap:     rows,
		xb:      tensor.New(rows, cfg.Dim),
		attnInb: tensor.New(rows, cfg.Dim),
		qb:      tensor.New(rows, cfg.Dim),
		kb:      tensor.New(rows, cfg.Dim),
		vb:      tensor.New(rows, cfg.Dim),
		ctxb:    tensor.New(rows, cfg.Dim),
		projb:   tensor.New(rows, cfg.Dim),
		h1b:     tensor.New(rows, cfg.FF),
		h2b:     tensor.New(rows, cfg.FF),
		scoresb: tensor.New(rows, cfg.MaxSeq),
		probsb:  tensor.New(rows, cfg.MaxSeq),
		normed:  tensor.New(1, cfg.Dim),
		logits:  tensor.New(1, cfg.Vocab),
	}
	sc.setRows(rows)
	return sc
}

// setRows points the working views at the first T rows of the backing
// matrices. A no-op while consecutive chunks share a size, and
// allocation-free when the size changes: the view headers are allocated
// on first use and re-pointed in place afterwards.
func (sc *chunkScratch) setRows(T int) {
	if sc.rows == T {
		return
	}
	sc.rows = T
	view(&sc.x, sc.xb, 0, T)
	view(&sc.attnIn, sc.attnInb, 0, T)
	view(&sc.q, sc.qb, 0, T)
	view(&sc.k, sc.kb, 0, T)
	view(&sc.v, sc.vb, 0, T)
	view(&sc.ctx, sc.ctxb, 0, T)
	view(&sc.proj, sc.projb, 0, T)
	view(&sc.h1, sc.h1b, 0, T)
	view(&sc.h2, sc.h2b, 0, T)
	view(&sc.scores, sc.scoresb, 0, T)
	view(&sc.probs, sc.probsb, 0, T)
	view(&sc.last, sc.xb, T-1, T)
}

// view points *v at rows [lo, hi) of b, allocating the header only if
// *v is nil.
func view(v **tensor.Mat, b *tensor.Mat, lo, hi int) {
	if *v == nil {
		*v = new(tensor.Mat)
	}
	**v = tensor.Mat{Rows: hi - lo, Cols: b.Cols, Data: b.Data[lo*b.Cols : hi*b.Cols]}
}

// ensureScratch returns the session scratch sized for a T-row chunk,
// (re)allocating only when T exceeds the current capacity.
func (s *Session) ensureScratch(T int) *chunkScratch {
	if s.scratch == nil || s.scratch.cap < T {
		capRows := T
		if capRows < DefaultPrefillChunk && s.m.Cfg.MaxSeq >= DefaultPrefillChunk {
			capRows = DefaultPrefillChunk
		}
		s.scratch = newChunkScratch(s.m.Cfg, capRows)
	}
	s.scratch.setRows(T)
	return s.scratch
}

// Append consumes tokens as one batched chunk — a single T x Dim forward
// through every block with matrix-matrix projections, causal multi-row
// attention against the KV cache and a bulk KV append — and returns the
// next-token logits after the last appended token. It is bit-identical to
// calling Step for each token in order, at any worker count.
//
// The returned matrix is owned by the session and overwritten by its next
// Step/Append/Prefill; clone it to retain it past that. On error the session
// is unchanged: the length check and the KV reservation both run before
// any state is touched, so a failed Append never half-advances the
// sequence — an ErrPoolExhausted Append may be retried verbatim once the
// scheduler frees pages.
//
//aptq:noalloc
func (s *Session) Append(tokens []int) (*tensor.Mat, error) {
	if len(tokens) == 0 {
		return nil, ErrEmptyPrompt
	}
	if s.pos+len(tokens) > s.m.Cfg.MaxSeq {
		return nil, fmt.Errorf("infer: sequence length %d exceeds MaxSeq %d", s.pos+len(tokens), s.m.Cfg.MaxSeq) //aptq:ignore noalloc cold error path: an out-of-budget request never reaches the steady state
	}
	if err := s.reserveKV(len(tokens)); err != nil {
		return nil, err
	}
	sc := s.ensureScratch(len(tokens)) //aptq:ignore noalloc the arena is allocated once and regrown only when a wider chunk arrives
	pos0 := s.pos
	s.m.EmbedChunkInto(sc.x, tokens, pos0)
	for bi, b := range s.m.Blocks {
		s.chunkBlock(b, s.caches[bi], sc, pos0)
	}
	s.pos += len(tokens)
	s.m.Norm.ForwardInto(sc.normed, sc.last)
	s.m.Head.ForwardInto(sc.logits, sc.normed)
	return sc.logits, nil
}

// Step consumes one token and returns the next-token logits (1 x vocab):
// a one-token Append on the session's arena, with the same error and
// ownership contract. (Sampling the next token before stepping again, the
// pattern of every decode loop in this repository, needs no clone.)
//
//aptq:noalloc
func (s *Session) Step(token int) (*tensor.Mat, error) {
	s.tok[0] = token
	return s.Append(s.tok[:])
}

// chunkBlock runs one decoder block over a T-row chunk whose first row
// sits at sequence position pos0. Every row runs the same per-element
// operations in the same order (x + attnOut, then h + mlpOut) whatever T
// is, so the residual stream does not depend on how tokens are chunked.
func (s *Session) chunkBlock(b *nn.Block, c *kvCache, sc *chunkScratch, pos0 int) {
	b.AttnNorm.ForwardInto(sc.attnIn, sc.x)
	s.chunkAttention(b.Attn, c, sc, pos0)
	tensor.AddInPlace(sc.x, sc.proj) // x = x + attnOut
	// attnIn is free once attention ran; reuse it for the MLP norm output.
	b.MLPNorm.ForwardInto(sc.attnIn, sc.x)
	b.MLP.ForwardInto(sc.proj, sc.attnIn, sc.h1, sc.h2)
	tensor.AddInPlace(sc.x, sc.proj) // x = x + mlpOut
}

// attnRowGrain sizes the parallel chunks of the attention row fan-out so
// one chunk carries roughly 1<<15 multiply-adds (the tensor kernels'
// sizing rule).
func attnRowGrain(opsPerRow int) int {
	if opsPerRow <= 0 {
		return 1
	}
	g := (1 << 15) / opsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// chunkAttention computes causal attention for all T chunk rows against
// the cache — bulk-appending the chunk's keys and values first — and
// writes WO's projection of the context into sc.proj. Row t attends to
// cached positions [0, pos0+t] with a fixed score, softmax and
// value-accumulation order. Rows partition across workers and each row
// owns its scores/probs scratch and its output rows, so the fan-out is
// bit-deterministic at any worker count. A fan-out that would be a single
// chunk (always the case for a one-token Step) runs inline, without
// building the parallel region.
func (s *Session) chunkAttention(attn *nn.Attention, c *kvCache, sc *chunkScratch, pos0 int) {
	attn.WQ.ForwardInto(sc.q, sc.attnIn)
	attn.WK.ForwardInto(sc.k, sc.attnIn)
	attn.WV.ForwardInto(sc.v, sc.attnIn)
	if attn.Rope != nil {
		attn.Rope.ApplyFrom(sc.q, pos0)
		attn.Rope.ApplyFrom(sc.k, pos0)
	}
	if s.kvQuant != nil {
		// Per-token grids: each row quantizes against its own scale, so the
		// batched form matches the per-step form row for row.
		s.kvQuant.QuantizeInPlace(sc.k)
		s.kvQuant.QuantizeInPlace(sc.v)
	}
	c.appendRows(sc.k, sc.v)

	T := sc.q.Rows
	// Average attention cost per row: one dot and one axpy over every
	// cached position per head, about 2*dim*(pos0+T/2) multiply-adds.
	grain := attnRowGrain(2 * attn.Dim * (pos0 + (T+1)/2))
	if parallel.Workers() == 1 || T <= grain {
		attnRowRange(attn, c, sc, pos0, 0, T)
	} else {
		parallel.For(T, grain, func(lo, hi int) {
			attnRowRange(attn, c, sc, pos0, lo, hi)
		})
	}
	attn.WO.ForwardInto(sc.proj, sc.ctx)
}

// attnRowRange computes the attention context of chunk rows [lo, hi).
func attnRowRange(attn *nn.Attention, c *kvCache, sc *chunkScratch, pos0, lo, hi int) {
	heads, hd := attn.Heads, attn.HeadDim
	invSqrt := 1 / math.Sqrt(float64(hd))
	for t := lo; t < hi; t++ {
		n := pos0 + t + 1 // causal horizon of row t
		scores := sc.scores.Row(t)[:n]
		probs := sc.probs.Row(t)[:n]
		ctxRow := sc.ctx.Row(t)
		for j := range ctxRow {
			ctxRow[j] = 0
		}
		qrow := sc.q.Row(t)
		for h := 0; h < heads; h++ {
			lo2 := h * hd
			qh := qrow[lo2 : lo2+hd]
			for u := 0; u < n; u++ {
				scores[u] = tensor.Dot(qh, c.kRow(u)[lo2:lo2+hd]) * invSqrt
			}
			tensor.Softmax(probs, scores)
			out := ctxRow[lo2 : lo2+hd]
			for u := 0; u < n; u++ {
				tensor.Axpy(probs[u], c.vRow(u)[lo2:lo2+hd], out)
			}
		}
	}
}
