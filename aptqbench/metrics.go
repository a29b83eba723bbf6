package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/tensor"
)

// metricDef is one reported metric. BENCHMARK.json gives each its
// direction and, for end-to-end metrics, its bound; README.md records
// which end-to-end metric each per-layer metric should move, and on which
// workload.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported from an
// untraced run. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{name: "ttft_p50_ms", unit: "ms"},
	{name: "itl_p50_ms", unit: "ms"},
	{name: "sat_tok_s", unit: "tok/s"},
	{name: "served_share", unit: "share"},
	{name: "quantize_s", unit: "s"},
	{name: "max_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{name: "router.self_ms_p50", unit: "ms"},
	{name: "router.affinity_share", unit: "share"},
	{name: "router.retries", unit: "count"},
	{name: "router.spills", unit: "count"},
	{name: "serve.sched_ttft_p50_ms", unit: "ms"},
	{name: "serve.http_overhead_ms", unit: "ms"},
	{name: "serve.batch_mean", unit: "slots"},
	{name: "serve.queue_mean", unit: "requests"},
	{name: "serve.prefix_hit_token_share", unit: "share"},
	{name: "serve.prefix_evictions", unit: "count"},
	{name: "serve.preemptions", unit: "count"},
	{name: "serve.admission_deferred", unit: "count"},
	{name: "infer.step_us_p50", unit: "us"},
	{name: "infer.prefill_us_per_token", unit: "us"},
	{name: "infer.kv_high_water_bytes", unit: "bytes"},
	{name: "infer.kv_sharing_ratio", unit: "ratio"},
	{name: "quant.token_matvec_us", unit: "us"},
	{name: "quant.chunk_matmul_us_per_row", unit: "us"},
	{name: "parallel.allocs_per_token", unit: "count"},
	{name: "runtime.gc_cpu_share", unit: "share"},
	{name: "core.collect_stats_s", unit: "s"},
	{name: "core.quantize_with_stats_s", unit: "s"},
	{name: "core.pack_ms", unit: "ms"},
	{name: "core.checkpoint_roundtrip_ms", unit: "ms"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "trace.ttft_p50_overhead_ms", unit: "ms"},
	{name: "trace.slowdown_share", unit: "share"},
}

// satTokS is the median, over phaseSlices equal time slices of the
// closed-loop phase, of the token events per second in the slice.
func (rd *round) satTokS() float64 {
	d := rd.closedTo.Sub(rd.closedFrom) / phaseSlices
	var xs []float64
	for i := 0; i < phaseSlices; i++ {
		from := rd.closedFrom.Add(time.Duration(i) * d)
		xs = append(xs, float64(tokensIn(rd.closed, from, from.Add(d)))/d.Seconds())
	}
	return median(xs)
}

// quantizeS is the median of the set-up pipeline passes, in seconds.
func (r *run) quantizeS() float64 {
	var xs []float64
	for _, pass := range r.setupPipes {
		xs = append(xs, pass.total.Seconds())
	}
	return median(xs)
}

// endToEndValues computes the untraced metrics of a round. Each latency
// metric is the median over phaseSlices slices of its phase. The tails
// are left to latencyDetail: on a shared 2-CPU host their run-to-run
// spread is wider than any bound a regression check could use.
func (r *run) endToEndValues(rd *round) map[string]float64 {
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	return map[string]float64{
		"ttft_p50_ms":  slicedMedian(rd.open, func(ttft, _ []float64) float64 { return percentile(ttft, 50) }),
		"itl_p50_ms":   slicedMedian(rd.open, func(_, itl []float64) float64 { return percentile(itl, 50) }),
		"sat_tok_s":    rd.satTokS(),
		"served_share": 1 - share(float64(r.failed), float64(r.attempted)),
		"quantize_s":   r.quantizeS(),
		"max_rss_mb":   peakRSSMB(),
		"setup_s":      median(setups),
	}
}

// latencyDetail records more of the latency distributions than the
// headline percentiles, with the sample counts behind them.
func latencyDetail(rd *round) map[string]float64 {
	ttft, itl, late := latencies(rd.open)
	d := map[string]float64{"ttft_n": float64(len(ttft)), "itl_n": float64(len(itl)), "late_p50_ms": percentile(late, 50)}
	_, satITL, _ := latencies(rd.closed)
	d["sat_itl_n"] = float64(len(satITL))
	for _, p := range []float64{90, 95, 98, 99, 99.9} {
		d[fmt.Sprintf("ttft_p%g_ms", p)] = percentile(ttft, p)
		d[fmt.Sprintf("itl_p%g_ms", p)] = percentile(itl, p)
		d[fmt.Sprintf("sat_itl_p%g_ms", p)] = percentile(satITL, p)
	}
	return d
}

// resetPeakRSS returns set-up's garbage to the OS and restarts the
// kernel's count of the peak resident set, so that max_rss_mb covers the
// measured window. It reports whether the kernel took the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the peak resident set size since resetPeakRSS (VmHWM
// in /proc/self/status), or NaN where it cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// perLayerValues computes the traced round's metrics, replaying the
// infer and quant calls under t; plain is the untraced round the tracing
// overhead is measured against.
func (r *run) perLayerValues(ctx context.Context, t *tracer, traced, plain *round) map[string]float64 {
	r.tg.p.Store(t)
	defer r.tg.p.Store(nil)
	v := map[string]float64{}
	v["router.self_ms_p50"] = median(selfMillis(t.snapshot(), "router.ServeHTTP"))
	v["router.affinity_share"] = traced.affinity
	v["router.retries"] = traced.retries
	v["router.spills"] = traced.spills

	ttft, _, late := latencies(traced.open)
	ttftP50 := percentile(ttft, 50)
	v["serve.sched_ttft_p50_ms"] = traced.schedTTFTp50
	v["serve.http_overhead_ms"] = ttftP50 - traced.schedTTFTp50
	v["serve.batch_mean"] = mean(traced.sampled.active)
	v["serve.queue_mean"] = mean(traced.sampled.queued)
	b, a := traced.before, traced.after
	v["serve.prefix_hit_token_share"] = share(float64(a.hitTokens-b.hitTokens), float64(a.promptTokens-b.promptTokens))
	v["serve.prefix_evictions"] = float64(a.evictions - b.evictions)
	v["serve.preemptions"] = float64(a.preemptions - b.preemptions)
	v["serve.admission_deferred"] = float64(a.deferred - b.deferred)
	v["infer.kv_high_water_bytes"] = float64(a.highWaterSum)
	v["infer.kv_sharing_ratio"] = mean(traced.sampled.sharing)

	v["infer.step_us_p50"], v["infer.prefill_us_per_token"] = r.replaySessions(ctx, r.p.open)
	v["quant.token_matvec_us"] = r.replayMatmul(ctx, 1)
	v["quant.chunk_matmul_us_per_row"] = r.replayMatmul(ctx, infer.DefaultPrefillChunk) / infer.DefaultPrefillChunk

	v["parallel.allocs_per_token"] = share(traced.allocs, float64(traced.closedTokens))
	v["runtime.gc_cpu_share"] = share(traced.gcCPU, traced.allCPU)

	var collect, quantize, pack, roundtrip []float64
	for _, pass := range r.setupPipes {
		collect = append(collect, pass.collect.Seconds())
		quantize = append(quantize, pass.quantize.Seconds())
		pack = append(pack, ms(pass.pack))
		roundtrip = append(roundtrip, ms(pass.roundtrip))
	}
	v["core.collect_stats_s"] = median(collect)
	v["core.quantize_with_stats_s"] = median(quantize)
	v["core.pack_ms"] = median(pack)
	v["core.checkpoint_roundtrip_ms"] = median(roundtrip)
	// The pipeline runs only in set-up, untraced; one more pass under the
	// tracer records its spans. The core metrics stay the set-up medians.
	r.attempted++
	if pass, err := runPipeline(ctx, &r.tg, model.New(modelConfig(), modelSeed), r.p.calib); err != nil {
		r.failed++
		r.mismatch("traced pipeline pass: %v", err)
	} else if pass.digest != servedDigest {
		r.failed++
		r.mismatch("traced pipeline pass: packed digest %s, want %s", pass.digest, servedDigest)
	}

	v["loadgen.late_p99_ms"] = percentile(late, 99)
	plainTTFT, _, _ := latencies(plain.open)
	v["trace.ttft_p50_overhead_ms"] = ttftP50 - percentile(plainTTFT, 50)
	v["trace.slowdown_share"] = plain.satTokS()/traced.satTokS() - 1
	return v
}

// replayBudget bounds each per-layer replay.
const replayBudget = 500 * time.Millisecond

// replaySessions replays the workload's requests on fresh sessions over
// the served model: PrefillChunked at the default chunk on each prompt,
// then Session.Step through the reply's length. It returns the median
// Step time and the prefill time per prompt token, in µs.
func (r *run) replaySessions(ctx context.Context, reqs []request) (stepUs, prefillUsPerToken float64) {
	m := r.sys.pipe.served.Model.View()
	var steps []float64
	var prefill time.Duration
	var prompt int
	end := time.Now().Add(replayBudget)
	for i := 0; i < len(reqs) && time.Now().Before(end); i++ {
		req := reqs[i].req
		sess := infer.NewSession(m)
		var err error
		prefill += r.tg.time(ctx, "infer.PrefillChunked", func() {
			_, err = sess.PrefillChunked(req.Prompt, infer.DefaultPrefillChunk)
		})
		if err != nil {
			r.mismatch("replay prefill: %v", err)
			return 0, 0
		}
		prompt += len(req.Prompt)
		rng := rand.New(rand.NewSource(req.Seed))
		for k := 0; k < req.MaxTokens; k++ {
			tok := rng.Intn(m.Cfg.Vocab)
			steps = append(steps, us(r.tg.time(ctx, "infer.Step", func() { _, err = sess.Step(tok) })))
			if err != nil {
				r.mismatch("replay step: %v", err)
				return 0, 0
			}
		}
	}
	return median(steps), us(prefill) / float64(prompt)
}

// replayMatmul times MatMulNTInto on a rows-row input over every packed
// projection of the served model and returns the median, over
// repetitions, of the summed time in µs: with rows=1 the weight work of
// one decode token.
func (r *run) replayMatmul(ctx context.Context, rows int) float64 {
	layers := r.sys.pipe.served.Layers
	ins := make([]*tensor.Mat, len(layers))
	outs := make([]*tensor.Mat, len(layers))
	rng := rand.New(rand.NewSource(1))
	for i, l := range layers {
		ins[i] = tensor.New(rows, l.W.Cols)
		for j := range ins[i].Data {
			ins[i].Data[j] = rng.NormFloat64()
		}
		outs[i] = tensor.New(rows, l.W.Rows)
	}
	var sums []float64
	end := time.Now().Add(replayBudget / 2)
	for len(sums) < 5 || time.Now().Before(end) {
		var sum time.Duration
		for i, l := range layers {
			sum += r.tg.time(ctx, "quant.MatMulNTInto", func() { l.W.MatMulNTInto(outs[i], ins[i]) })
		}
		sums = append(sums, us(sum))
	}
	return median(sums)
}
