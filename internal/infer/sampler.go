package infer

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Sampler draws tokens from logits with reusable scratch buffers, so the
// temperature path of a decode loop allocates nothing per token in steady
// state — the sampling-side counterpart of the session's block-forward
// arena. A Sampler is not safe for concurrent use; decode loops that fan
// out across sequences keep one per sequence (see Batch.Generate and the
// serving scheduler's slots). The zero value is ready to use.
//
// Sample is bit-identical to SampleLogits for every input: the scratch
// reuse changes where the intermediate slices live, never a float
// operation.
type Sampler struct {
	scaled, probs []float64
}

// ensure sizes the scratch buffers for n logits, growing only when a
// wider vocabulary appears (for a fixed model, exactly once).
func (sp *Sampler) ensure(n int) {
	if cap(sp.scaled) < n {
		sp.scaled = make([]float64, n)
		sp.probs = make([]float64, n)
	}
	sp.scaled = sp.scaled[:n]
	sp.probs = sp.probs[:n]
}

// Sample draws a token from softmax(logits/temperature); a temperature of
// 0 returns the argmax. Degenerate-input behavior matches SampleLogits
// exactly (empty logits -> -1, all -Inf or all NaN -> uniform / index 0,
// NaN entries masked).
//
//aptq:noalloc
func (sp *Sampler) Sample(rng *rand.Rand, logits []float64, temperature float64) int {
	if len(logits) == 0 {
		return -1
	}
	if temperature <= 0 {
		best := -1
		for i, v := range logits {
			if math.IsNaN(v) {
				continue
			}
			if best < 0 || v > logits[best] {
				best = i
			}
		}
		if best < 0 {
			return 0 // all NaN: same deterministic fallback as all--Inf
		}
		return best
	}
	sp.ensure(len(logits)) //aptq:ignore noalloc sampler scratch grows once to vocab width, then every draw reuses it
	scaled := sp.scaled
	for i, v := range logits {
		if math.IsNaN(v) {
			scaled[i] = math.Inf(-1)
			continue
		}
		scaled[i] = v / temperature
	}
	probs := sp.probs
	tensor.Softmax(probs, scaled)
	u := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(probs) - 1
}
