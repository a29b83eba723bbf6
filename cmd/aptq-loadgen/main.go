// Command aptq-loadgen is an open-loop load generator for aptq-serve: it
// fires requests at a fixed arrival rate (exponential interarrivals, so
// bursts happen) regardless of how fast the server answers — the regime
// where queueing delay and admission control actually show up, unlike a
// closed loop that politely waits for each reply. Prompt lengths, output
// budgets (short-skewed with a long tail), priorities and shared prompt
// prefixes are drawn from a seeded plan, so two runs against the same
// server replay the identical workload.
//
// Every request uses the streaming form of POST /v1/generate, which is
// what makes the interactive-latency percentiles measurable: TTFT is the
// time from send to the first SSE token event, inter-token latency the
// gap between consecutive events. Results are written as a benchjson
// snapshot (map of benchmark name to metric map, *_ms keys lower-is-
// better), so `benchjson -compare` diffs latency runs exactly like it
// diffs throughput runs:
//
//	aptq-loadgen -url http://127.0.0.1:8080 -rate 50 -duration 5s > lat.json
//	benchjson -compare lat_old.json lat.json -ms-threshold 0.5
//
// With -shared-prefix N the shared prefixes are N tokens long — size it
// to a multiple of the server's KV page (16 rows) so whole prefix pages
// publish into the prefix cache and later requests adopt them zero-copy —
// and the run ends by sampling /v1/stats, folding the paged-KV sharing
// counters (kv_unique_bytes, kv_logical_bytes, kv_sharing_ratio) into the
// snapshot next to the latency percentiles.
//
// With -burst-rps the arrival rate ramps linearly from -rate to the burst
// rate over -ramp-s seconds (immediately when -ramp-s is 0) — the overload
// shape that drives a -kv-budget-mb-bounded server through its degradation
// ladder. When the sampled /v1/stats exposes the memory-pressure surface,
// the run folds preemptions, admission_deferred, panics, rejected and the
// budget/high-water bytes into the snapshot as LoadgenPressure.
//
// With -max-error-rate / -max-p99-ttft-ms the generator gates itself and
// exits non-zero past the bound, so a CI job needs no JSON tooling:
//
//	aptq-loadgen -rate 40 -duration 3s -max-error-rate 0 -max-p99-ttft-ms 5000
//
// Multi-replica targeting: -replicas takes a comma-separated URL list and
// spreads the planned requests across them round-robin (the naive
// affinity-free baseline — compare against pointing -url at aptq-router,
// which routes the same workload by prefix affinity). Either way, when
// the stats endpoint the run samples turns out to be a router (its
// /v1/stats carries router_* counters), the retry/failover/spill/ejection
// counters are folded into the snapshot as LoadgenRouter, so a latency CI
// artifact records how hard the fault-tolerance machinery worked during
// the run:
//
//	aptq-loadgen -url http://127.0.0.1:8090 -rate 50 -duration 5s   # router
//	aptq-loadgen -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	url        string
	replicas   string        // comma-separated URL list; round-robin targeting
	rate       float64       // mean request arrivals per second
	duration   time.Duration // plan horizon (arrivals past it are dropped)
	requests   int           // hard cap on planned requests (0 = rate*duration)
	seed       int64
	promptMin  int
	promptMax  int
	outMin     int
	outMax     int
	prefixPop  int     // distinct shared prefixes in the population
	prefixLen  int     // tokens per shared prefix
	prefixFrac float64 // fraction of requests drawing a shared prefix
	sharedPref int     // page-sized shared-prefix override; also samples KV sharing
	priorities int     // priority classes drawn uniformly from [0,n)
	deadlineMs int64   // per-request deadline forwarded to the server (0 = none)
	burstRPS   float64 // peak arrival rate the plan ramps to (0 = constant -rate)
	rampS      float64 // seconds to ramp linearly from -rate to -burst-rps (<=0 = immediate)

	maxErrorRate float64 // self-gate: fail past this error rate (<0 = off)
	maxP99TTFTMs float64 // self-gate: fail past this TTFT p99 (0 = off)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "http://127.0.0.1:8080", "aptq-serve (or aptq-router) base URL")
	flag.StringVar(&cfg.replicas, "replicas", "", "comma-separated replica URLs; requests round-robin across them (overrides -url for request traffic)")
	flag.Float64Var(&cfg.rate, "rate", 20, "mean arrival rate, requests/second (open loop)")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "arrival window to plan")
	flag.IntVar(&cfg.requests, "requests", 0, "cap on planned requests (0 = rate*duration)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload plan seed (same seed = same workload)")
	flag.IntVar(&cfg.promptMin, "prompt-min", 2, "minimum prompt length, tokens")
	flag.IntVar(&cfg.promptMax, "prompt-max", 16, "maximum prompt length, tokens")
	flag.IntVar(&cfg.outMin, "out-min", 2, "minimum output budget, tokens")
	flag.IntVar(&cfg.outMax, "out-max", 24, "maximum output budget, tokens (short-skewed draw)")
	flag.IntVar(&cfg.prefixPop, "prefix-pop", 4, "distinct shared prompt prefixes (0 = no sharing)")
	flag.IntVar(&cfg.prefixLen, "prefix-len", 6, "tokens per shared prefix")
	flag.Float64Var(&cfg.prefixFrac, "prefix-frac", 0.5, "fraction of requests reusing a shared prefix")
	flag.IntVar(&cfg.sharedPref, "shared-prefix", 0, "shared-prefix length override, tokens; size it to a multiple of the server's KV page (16) so prefix pages are adopted zero-copy, and the run appends the server's KV sharing stats to the snapshot (0 = off)")
	flag.IntVar(&cfg.priorities, "priorities", 1, "priority classes drawn uniformly (1 = all equal)")
	flag.Int64Var(&cfg.deadlineMs, "deadline-ms", 0, "per-request deadline_ms forwarded to the server (0 = none)")
	flag.Float64Var(&cfg.burstRPS, "burst-rps", 0, "peak arrival rate the plan ramps to; the burst regime that exercises admission deferral and preemption (0 = constant -rate)")
	flag.Float64Var(&cfg.rampS, "ramp-s", 0, "seconds to ramp linearly from -rate to -burst-rps (<=0 with -burst-rps set = burst immediately)")
	flag.Float64Var(&cfg.maxErrorRate, "max-error-rate", -1, "exit non-zero when error rate exceeds this (negative = no gate)")
	flag.Float64Var(&cfg.maxP99TTFTMs, "max-p99-ttft-ms", 0, "exit non-zero when TTFT p99 exceeds this many ms (0 = no gate)")
	out := flag.String("out", "", "write the latency snapshot JSON here (empty = stdout)")
	flag.Parse()

	snap, failures, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aptq-loadgen: %v\n", err)
		os.Exit(1)
	}
	b, _ := json.MarshalIndent(snap, "", "  ")
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "aptq-loadgen: %v\n", err)
		os.Exit(1)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "aptq-loadgen: GATE FAILED: %s\n", f)
		}
		os.Exit(1)
	}
}

// withPrefixOverride applies -shared-prefix to the plan shape: when set,
// it replaces the shared-prefix length with one sized for the server's
// paged KV cache — a page multiple means whole prefix pages publish into
// the prefix cache and later requests adopt them zero-copy, which is what
// makes the sharing ratio sampled after the run move.
func (c config) withPrefixOverride() config {
	if c.sharedPref > 0 {
		c.prefixLen = c.sharedPref
	}
	return c
}

// call is one planned request: when to fire it and what to send.
type call struct {
	at   time.Duration
	body map[string]any
}

// buildPlan derives the full workload from the seed: Poisson arrivals at
// cfg.rate, prompts drawn from the server's vocabulary (optionally
// opening with one of prefixPop shared prefixes — the prefix-cache /
// chunked-prefill hot case), and output budgets skewed short with a long
// tail (r^2 draw), the shape interactive traffic actually has.
func buildPlan(cfg config, vocab, maxSeq int) []call {
	rng := rand.New(rand.NewSource(cfg.seed))
	tok := func() int { return rng.Intn(vocab) }
	prefixes := make([][]int, cfg.prefixPop)
	for i := range prefixes {
		p := make([]int, cfg.prefixLen)
		for j := range p {
			p[j] = tok()
		}
		prefixes[i] = p
	}
	span := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	var plan []call
	var at time.Duration
	for i := 0; cfg.requests == 0 || i < cfg.requests; i++ {
		// Exponential interarrival: open-loop Poisson process. With
		// -burst-rps the intensity is time-varying (rateAt), which makes the
		// plan a stepwise nonhomogeneous Poisson process — each gap drawn at
		// the instantaneous rate of the previous arrival — still fully
		// determined by the seed.
		at += time.Duration(rng.ExpFloat64() / rateAt(cfg, at) * float64(time.Second))
		if at > cfg.duration {
			break
		}
		var prompt []int
		if len(prefixes) > 0 && rng.Float64() < cfg.prefixFrac {
			prompt = append(prompt, prefixes[rng.Intn(len(prefixes))]...)
		}
		for n := span(cfg.promptMin, cfg.promptMax); len(prompt) < n; {
			prompt = append(prompt, tok())
		}
		// Short-skewed output budget with a long tail: r^2 concentrates
		// mass near outMin while still reaching outMax occasionally.
		r := rng.Float64()
		maxTok := cfg.outMin + int(r*r*float64(cfg.outMax-cfg.outMin)+0.5)
		// Keep room for at least one generated token in the context.
		if len(prompt) > maxSeq-1 {
			prompt = prompt[:maxSeq-1]
		}
		if rest := maxSeq - len(prompt); maxTok > rest {
			maxTok = rest
		}
		if maxTok < 1 {
			maxTok = 1
		}
		body := map[string]any{
			"id":          fmt.Sprintf("lg-%d", i),
			"tokens":      prompt,
			"max_tokens":  maxTok,
			"temperature": 0.8,
			"seed":        rng.Int63(),
		}
		if cfg.priorities > 1 {
			body["priority"] = rng.Intn(cfg.priorities)
		}
		if cfg.deadlineMs > 0 {
			body["deadline_ms"] = cfg.deadlineMs
		}
		plan = append(plan, call{at: at, body: body})
	}
	return plan
}

// rateAt is the plan's arrival intensity at offset t: the base -rate,
// ramped linearly to -burst-rps over the first -ramp-s seconds (with no
// ramp, the burst rate applies from t=0). The burst shape is what drives
// a budgeted server into its degradation ladder — admission deferral,
// cache reclaim, preemption — while staying replayable from the seed.
func rateAt(cfg config, t time.Duration) float64 {
	if cfg.burstRPS <= 0 {
		return cfg.rate
	}
	if cfg.rampS <= 0 {
		return cfg.burstRPS
	}
	frac := t.Seconds() / cfg.rampS
	if frac >= 1 {
		return cfg.burstRPS
	}
	return cfg.rate + frac*(cfg.burstRPS-cfg.rate)
}

// collector accumulates latency samples and error counts across the
// concurrent request goroutines.
type collector struct {
	mu     sync.Mutex
	ttft   []time.Duration
	itl    []time.Duration
	errs   int
	tokens int
}

func (c *collector) record(ttft time.Duration, itl []time.Duration, tokens int, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if failed {
		c.errs++
		return
	}
	c.ttft = append(c.ttft, ttft)
	c.itl = append(c.itl, itl...)
	c.tokens += tokens
}

// run executes the planned workload against cfg.url and returns the
// latency snapshot plus any violated self-gates.
func run(cfg config) (map[string]map[string]float64, []string, error) {
	// The target set: -replicas spreads requests round-robin (the
	// affinity-free baseline); otherwise everything goes to -url, which may
	// be a single replica or a router. Shape and post-run stats come from
	// the first target — replicas are identical by contract.
	targets := splitURLs(cfg.replicas)
	if len(targets) == 0 {
		targets = []string{cfg.url}
	}
	statsURL := targets[0]

	vocab, maxSeq, err := fetchModelShape(statsURL)
	if err != nil {
		return nil, nil, fmt.Errorf("healthz: %w", err)
	}
	cfg = cfg.withPrefixOverride()
	plan := buildPlan(cfg, vocab, maxSeq)
	if len(plan) == 0 {
		return nil, nil, fmt.Errorf("empty plan: rate %.1f over %s yields no arrivals", cfg.rate, cfg.duration)
	}

	var col collector
	var wg sync.WaitGroup
	client := &http.Client{}
	start := time.Now()
	for i, c := range plan {
		if d := c.at - time.Since(start); d > 0 {
			time.Sleep(d) // open loop: fire on schedule, never on reply
		}
		target := targets[i%len(targets)]
		wg.Add(1)
		go func(c call, target string) {
			defer wg.Done()
			ttft, itl, tokens, failed := doRequest(client, target, c.body)
			col.record(ttft, itl, tokens, failed)
		}(c, target)
	}
	wg.Wait()
	elapsed := time.Since(start)

	col.mu.Lock()
	defer col.mu.Unlock()
	errRate := float64(col.errs) / float64(len(plan))
	snap := map[string]map[string]float64{
		"LoadgenTTFT": {
			"p50_ms":  ms(percentile(col.ttft, 50)),
			"p99_ms":  ms(percentile(col.ttft, 99)),
			"samples": float64(len(col.ttft)),
		},
		"LoadgenInterToken": {
			"p50_ms":  ms(percentile(col.itl, 50)),
			"p99_ms":  ms(percentile(col.itl, 99)),
			"samples": float64(len(col.itl)),
		},
		"LoadgenSummary": {
			"requests":   float64(len(plan)),
			"errors":     float64(col.errs),
			"error_rate": errRate,
			"tok_per_s":  float64(col.tokens) / elapsed.Seconds(),
		},
	}
	// One /v1/stats sample after the run feeds every stats-derived
	// section. Only the KV-sharing section is required (with
	// -shared-prefix); the others are folded in when the server has them.
	st, err := fetchStats(statsURL)
	if cfg.sharedPref > 0 {
		if err != nil {
			return nil, nil, fmt.Errorf("stats: %w", err)
		}
		snap["LoadgenKVSharing"] = kvSharing(st)
	}
	if rc := routerCounters(st); len(rc) > 0 {
		snap["LoadgenRouter"] = rc
	}
	if pc, ok := pressureCounters(st); ok {
		snap["LoadgenPressure"] = pc
	}
	var failures []string
	if cfg.maxErrorRate >= 0 && errRate > cfg.maxErrorRate {
		failures = append(failures, fmt.Sprintf("error rate %.3f > %.3f (%d/%d requests failed)",
			errRate, cfg.maxErrorRate, col.errs, len(plan)))
	}
	if p99 := snap["LoadgenTTFT"]["p99_ms"]; cfg.maxP99TTFTMs > 0 && p99 > cfg.maxP99TTFTMs {
		failures = append(failures, fmt.Sprintf("TTFT p99 %.1fms > %.1fms", p99, cfg.maxP99TTFTMs))
	}
	return snap, failures, nil
}

// fetchStats samples the server's /v1/stats once the workload has
// drained. The counters are cumulative since server start, so a CI job
// that wants per-run deltas boots a fresh server per run — which the
// smoke scripts do anyway.
func fetchStats(base string) (map[string]any, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return st, nil
}

// kvSharing picks the paged-KV sharing counters out of a stats sample
// (missing keys read 0). Slots release their pages lazily (on the next
// admission), so the post-run numbers still reflect the workload:
// kv_unique_bytes is resident KV with shared prefix pages counted once,
// kv_logical_bytes what the same references would cost held privately,
// kv_sharing_ratio their quotient (> 1 means prefix pages were actually
// adopted). The keys land in the snapshot verbatim, so
// `benchjson -compare` treats the *_bytes pair as lower-is-better
// residency metrics like any other.
func kvSharing(st map[string]any) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"kv_unique_bytes", "kv_logical_bytes", "kv_pages", "kv_sharing_ratio"} {
		out[k], _ = st[k].(float64)
	}
	return out
}

// routerCounters picks the router_* counters out of a stats sample, with
// the prefix stripped; it is empty when the endpoint is a plain replica.
// A latency artifact taken through a router thereby says how many
// retries/failovers/spills the run's percentiles absorbed.
func routerCounters(st map[string]any) map[string]float64 {
	out := map[string]float64{}
	for k, v := range st {
		if f, isNum := v.(float64); isNum && strings.HasPrefix(k, "router_") {
			out[strings.TrimPrefix(k, "router_")] = f
		}
	}
	return out
}

// pressureCounters picks the memory-pressure counters out of a stats
// sample: how much degradation — preemptions, deferred admissions, sheds,
// panics — the run's percentiles were measured under, plus the budget and
// the pool's high-water mark. ok is false when the endpoint has no
// pressure surface (the `preemptions` key is the sentinel).
func pressureCounters(st map[string]any) (map[string]float64, bool) {
	if _, hasPressure := st["preemptions"]; !hasPressure {
		return nil, false
	}
	out := map[string]float64{}
	for _, k := range []string{"preemptions", "admission_deferred", "panics", "rejected", "kv_budget_bytes", "kv_high_water_bytes"} {
		if f, isNum := st[k].(float64); isNum {
			out[k] = f
		}
	}
	return out, true
}

// splitURLs parses a comma-separated URL list, trimming blanks and
// trailing slashes.
func splitURLs(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		u := strings.TrimRight(strings.TrimSpace(part), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// fetchModelShape asks /healthz for the served model's vocabulary and
// context length, so the plan only produces prompts the server accepts.
func fetchModelShape(base string) (vocab, maxSeq int, err error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Vocab  int `json:"vocab"`
		MaxSeq int `json:"maxseq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, err
	}
	if h.Vocab <= 0 || h.MaxSeq <= 0 {
		return 0, 0, fmt.Errorf("healthz reports vocab=%d maxseq=%d", h.Vocab, h.MaxSeq)
	}
	return h.Vocab, h.MaxSeq, nil
}

// doRequest drives one streaming generate and measures its interactive
// latencies: TTFT from send to the first SSE token event, inter-token
// latency between consecutive token events. A request fails on transport
// error, non-200 status, an empty stream, or an error in the final event.
func doRequest(client *http.Client, base string, body map[string]any) (ttft time.Duration, itl []time.Duration, tokens int, failed bool) {
	b, _ := json.Marshal(body)
	sent := time.Now()
	resp, err := client.Post(base+"/v1/generate?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, 0, true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, nil, 0, true
	}
	var (
		last   time.Time
		events int
		final  string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) < 6 || line[:6] != "data: " {
			continue
		}
		now := time.Now()
		if events == 0 {
			ttft = now.Sub(sent)
		} else {
			itl = append(itl, now.Sub(last))
		}
		last = now
		events++
		final = line[6:]
	}
	if sc.Err() != nil || events == 0 {
		return 0, nil, 0, true
	}
	// The last event is the complete response body; every earlier one is a
	// token event, so tokens = events-1. The final inter-token sample (gap
	// between last token and the response event) is dropped: both are
	// written in the same tick, it measures nothing.
	if n := len(itl); n > 0 {
		itl = itl[:n-1]
	}
	var res struct {
		FinishReason string `json:"finish_reason"`
		Error        string `json:"error"`
	}
	if json.Unmarshal([]byte(final), &res) != nil || res.Error != "" || res.FinishReason == "" {
		return 0, nil, 0, true
	}
	return ttft, itl, events - 1, false
}

// ms converts a duration to float milliseconds for the snapshot.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// percentile is the nearest-rank percentile over an unsorted sample set
// (same definition the scheduler's /v1/stats surface uses).
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
