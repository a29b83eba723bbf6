package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/serve"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// openShare is the share of the measured window spent in the open-loop
// phase; the rest is the closed-loop saturation phase.
const openShare = 0.6

// run is one invocation of the benchmark.
type run struct {
	w   workload
	tg  tracing
	p   *plan
	sys *system

	setups     []time.Duration
	setupPipes []*pipelineRun

	attempted, failed int
	defects           []string // output mismatches; any makes the run incorrect
}

func (r *run) mismatch(format string, args ...any) {
	if len(r.defects) < 20 {
		r.defects = append(r.defects, fmt.Sprintf(format, args...))
	}
}

// setUp sets the system up setupRepeats times, keeping the last. Each
// set-up closes the previous system first, so one fleet is resident at a
// time.
func (r *run) setUp(ctx context.Context) error {
	for i := 0; i < setupRepeats; i++ {
		if r.sys != nil {
			r.sys.close()
			r.sys = nil
		}
		t0 := time.Now()
		sys, warm, err := setUp(ctx, r.w, r.p, &r.tg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0))
		r.setupPipes = append(r.setupPipes, sys.pipe)
		r.attempted++
		if d := sys.pipe.digest; d != servedDigest {
			r.failed++
			r.mismatch("set-up %d: packed digest %s, want %s", i, d, servedDigest)
		}
		r.checkReplies(sys, warm, r.p.warm, nil)
		r.sys = sys
	}
	return nil
}

// round is one measured window's worth of load and what it produced.
type round struct {
	traced               bool
	open, closed         []*reply
	closedFrom, closedTo time.Time
	steal                float64 // host steal share during the round (stealSince)

	// Filled only when traced.
	sampled               *sampler
	before, after         schedStats
	retries, spills       float64
	affinity              float64
	schedTTFTp50          float64
	allocs, gcCPU, allCPU float64
	closedTokens          int
}

// measure runs one window: the open-loop phase, then the closed-loop
// saturation phase.
func (r *run) measure(ctx context.Context, window time.Duration, t *tracer) (*round, error) {
	rd := &round{traced: t != nil}
	steal0, demand0, ok0 := cpuTimes()
	defer func() { rd.steal = stealSince(steal0, demand0, ok0) }()
	r.tg.p.Store(t)
	defer r.tg.p.Store(nil)
	sys := r.sys
	if rd.traced {
		rd.before = sys.stats()
		var err error
		if rd.retries, rd.spills, err = sys.routerCounters(); err != nil {
			return nil, err
		}
		if sys.tp != nil {
			sys.tp.aff.reset()
		}
		rd.sampled = sys.startSampler()
	}
	rd.open = sys.cl.openLoop(ctx, time.Now(), r.p.openAt, bodies(r.p.open), 1)
	var rt0 []metrics.Sample
	if rd.traced {
		rd.schedTTFTp50 = median(sys.stats().ttftP50)
		rt0 = readRuntime()
	}
	rd.closedFrom = time.Now()
	rd.closedTo = rd.closedFrom.Add(window - time.Duration(openShare*float64(window)))
	rd.closed = sys.cl.closedLoop(ctx, rd.closedTo, sys.callers, bodies(r.p.closed), int64(len(r.p.open))+1)
	if rd.traced {
		rt1 := readRuntime()
		rd.allocs = float64(rt1[0].Value.Uint64() - rt0[0].Value.Uint64())
		rd.gcCPU = rt1[1].Value.Float64() - rt0[1].Value.Float64()
		rd.allCPU = rt1[2].Value.Float64() - rt0[2].Value.Float64()
		for _, rep := range rd.closed {
			rd.closedTokens += len(rep.events)
		}
		rd.sampled.finish()
		rd.after = sys.stats()
		retries, spills, err := sys.routerCounters()
		if err != nil {
			return nil, err
		}
		rd.retries, rd.spills = retries-rd.retries, spills-rd.spills
		if sys.tp != nil {
			rd.affinity = sys.tp.aff.share()
		}
	}
	return rd, nil
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s
}

// verify checks every reply of a round.
func (r *run) verify(rd *round) {
	r.checkReplies(r.sys, rd.open, r.p.open, r.p.verifyOpen)
	r.checkReplies(r.sys, rd.closed, r.p.closed, r.p.verifyClosed)
}

// checkReplies counts each reply as attempted, and as failed if it was
// refused or its stream is not a complete, self-consistent reply of the
// planned length. The replies to the planned requests listed in sample
// must also equal serve.Sequential on the served model.
func (r *run) checkReplies(sys *system, reps []*reply, reqs []request, sample []int) {
	bad := map[int]bool{}
	for _, rep := range reps {
		r.attempted++
		if d := rep.streamDefect(reqs[rep.plan].req.MaxTokens); d != "" {
			r.failed++
			bad[rep.plan] = true
			if !rep.refused() {
				r.mismatch("request %d: %s", rep.plan, d)
			}
		}
	}
	for _, i := range sample {
		var rep *reply
		for _, c := range reps {
			if c.plan == i {
				rep = c
				break
			}
		}
		if rep == nil || bad[i] {
			continue
		}
		want := serve.Sequential(sys.pipe.served.Model, reqs[i].req, sys.opts)
		if !equalInts(rep.final.Tokens, want.Tokens) {
			r.failed++
			r.mismatch("request %d: served %v, Sequential %v", i, rep.final.Tokens, want.Tokens)
		}
	}
}
