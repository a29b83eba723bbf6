package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"repro/internal/data"
	"repro/internal/serve"
)

// workload is one traffic shape; BENCHMARK.json says why each exists.
// Everything random about a run comes from the plan built from it and the
// seed; the program only sees the plan.
type workload struct {
	name string
	// Serving fleet: replicas (more than one puts the router in front),
	// slots per replica, prefix-cache and KV budgets per replica.
	replicas, slots       int
	prefixCache, kvBudget int64
	// Prompts: one of prefixes shared prefixes of prefixLen tokens (none
	// when prefixes is 0), then promptMin..promptMax unique tokens.
	prefixes, prefixLen  int
	promptMin, promptMax int
	outMin, outMax       int
	// rate is the open-loop Poisson arrival rate (requests/s).
	rate float64
}

var workloads = []workload{
	{
		name:     "decode-heavy",
		replicas: 1, slots: 8,
		promptMin: 4, promptMax: 16, outMin: 24, outMax: 48,
		rate: 20,
	},
	{
		name:     "prefix-fleet",
		replicas: 2, slots: 8, prefixCache: 7 << 20, kvBudget: 16 << 20,
		prefixes: 16, prefixLen: 128,
		promptMin: 4, promptMax: 16, outMin: 4, outMax: 12,
		rate: 40,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one planned generate request: its wire body and the
// scheduler request it decodes to, for the Sequential oracle.
type request struct {
	body []byte
	req  serve.Request
}

// plan is the generated input of one run.
type plan struct {
	calib  *data.CalibrationSet
	warm   []request
	openAt []time.Duration // due offsets of open, from the phase start
	open   []request
	closed []request // cycled by the closed-loop callers
	// verify indexes the open and closed requests replayed through
	// serve.Sequential; the closed ones are among the first the callers send.
	verifyOpen, verifyClosed []int
}

const (
	calibSegments = 32
	calibLen      = 48
	warmPerSlot   = 2
	closedPool    = 4096
	verifyOpenN   = 12
	prefixSeed    = 1
	calibSeed     = 1
)

// makePlan generates the run's inputs: the fixed calibration segments,
// and from the seed the warm-up requests, open-loop arrivals over openDur,
// and the closed-loop request pool.
//
// Each list is stratified so that seeds differ in order, not in amount of
// work: prompt and reply lengths cycle evenly through their ranges and
// open-loop prefixes through the shared set before shuffling (closed-loop
// prefixes go round-robin), and the open loop's
// gaps are the rate·openDur quantiles of the exponential distribution in
// shuffled order, so arrivals are Poisson-like with the same total load.
func makePlan(w workload, vocab int, seed int64, openDur time.Duration) *plan {
	rng := rand.New(rand.NewSource(seed))
	// The calibration set is part of the deployment, like the model
	// weights: fixed, so every seed serves the same quantized model and
	// its digest can be pinned (servedDigest).
	calib := rand.New(rand.NewSource(calibSeed))
	p := &plan{calib: data.SampleCalibration(calib, data.NewC4Like(vocab), calibSegments, calibLen)}
	// The shared prefixes are the deployment's system prompts: fixed, like
	// the model, so every seed routes the same prefixes to the same
	// replicas and the fleet's cache working set does not change with it.
	fixed := rand.New(rand.NewSource(prefixSeed))
	prefixes := make([][]int, w.prefixes)
	for i := range prefixes {
		prefixes[i] = randomTokens(fixed, vocab, w.prefixLen)
	}
	requests := func(n int, prefixRoundRobin bool) []request {
		promptLens := stratified(rng, n, w.promptMin, w.promptMax)
		outLens := stratified(rng, n, w.outMin, w.outMax)
		prefixIdx := stratified(rng, n, 0, w.prefixes-1)
		if prefixRoundRobin {
			for i := range prefixIdx {
				prefixIdx[i] = i % max(w.prefixes, 1)
			}
		}
		out := make([]request, n)
		for i := range out {
			var prompt []int
			if len(prefixes) > 0 {
				prompt = append(prompt, prefixes[prefixIdx[i]]...)
			}
			prompt = append(prompt, randomTokens(rng, vocab, promptLens[i])...)
			g := serve.GenerateRequest{
				Tokens:      prompt,
				MaxTokens:   outLens[i],
				Temperature: 0.8,
				Seed:        rng.Int63(),
				Stream:      true,
			}
			body, err := json.Marshal(g)
			if err != nil {
				panic(err) // a struct of ints and floats always marshals
			}
			out[i] = request{body: body, req: serve.Request{Prompt: g.Tokens, MaxTokens: g.MaxTokens, Temperature: g.Temperature, Seed: g.Seed}}
		}
		return out
	}
	p.warm = requests(warmPerSlot*w.slots*w.replicas, false)
	if n := int(w.rate * openDur.Seconds()); n > 0 {
		p.open = requests(n, false)
		var at time.Duration
		for _, i := range rng.Perm(n) {
			// The exponential quantile at the middle of stratum i.
			at += time.Duration(-math.Log(1-(float64(i)+0.5)/float64(n)) / w.rate * float64(time.Second))
			p.openAt = append(p.openAt, at)
		}
	}
	// The closed-loop callers take requests in order, so the requests in
	// flight walk the shared prefixes round-robin: the replicas' shares of
	// the saturation load are their shares of the prefixes, not chance.
	p.closed = requests(closedPool, true)
	for _, i := range rng.Perm(len(p.open))[:min(verifyOpenN, len(p.open))] {
		p.verifyOpen = append(p.verifyOpen, i)
	}
	for _, i := range rng.Perm(w.slots * w.replicas)[:4] {
		p.verifyClosed = append(p.verifyClosed, i)
	}
	return p
}

// stratified returns n integers that cycle evenly through [lo, hi], in
// shuffled order.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	if hi < lo {
		return out
	}
	for i, j := range rng.Perm(n) {
		out[i] = lo + j%(hi-lo+1)
	}
	return out
}

func randomTokens(rng *rand.Rand, vocab, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(vocab)
	}
	return out
}

func bodies(rs []request) [][]byte {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = r.body
	}
	return out
}
