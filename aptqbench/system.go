package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/serve"
)

// modelSeed initializes the served model's weights; the workload seed
// only drives inputs.
const modelSeed = 1

// modelConfig is APTQ nano-7B with a 256-token context, long enough for a
// shared 128-token prefix plus a unique tail and the reply.
func modelConfig() model.Config {
	cfg := model.Nano7B()
	cfg.MaxSeq = 256
	return cfg
}

// system is one set-up: the quantized model and the fleet serving it.
type system struct {
	pipe    *pipelineRun
	opts    serve.Options
	servers []*serve.Server
	router  *router.Router // nil for a single replica
	tp      *memTransport
	cl      *client
	callers int
}

// setUp builds the model, runs one quantize pipeline pass, starts the
// fleet on the read-back checkpoint and warms it with the plan's warm-up
// requests.
func setUp(ctx context.Context, w workload, p *plan, tg *tracing) (*system, []*reply, error) {
	m := model.New(modelConfig(), modelSeed)
	pipe, err := runPipeline(ctx, tg, m, p.calib)
	if err != nil {
		return nil, nil, err
	}
	s := &system{
		pipe: pipe,
		opts: serve.Options{
			Slots: w.slots, EOS: -1, PrefillChunk: infer.DefaultPrefillChunk,
			PrefixCacheBytes: w.prefixCache, KVBudgetBytes: w.kvBudget,
		},
		callers: w.slots * w.replicas,
	}
	for i := 0; i < w.replicas; i++ {
		s.servers = append(s.servers, serve.NewServer(pipe.served.Model, s.opts))
	}
	top := tg.handler("replica.ServeHTTP", s.servers[0].Handler())
	if w.replicas > 1 {
		s.tp = &memTransport{replicas: map[string]http.Handler{}, tg: tg, aff: newAffinity(w.prefixLen)}
		urls := make([]string, w.replicas)
		for i, srv := range s.servers {
			host := fmt.Sprintf("replica-%d", i)
			urls[i] = "http://" + host
			s.tp.replicas[host] = tg.handler("replica.ServeHTTP", srv.Handler())
		}
		s.router, err = router.New(router.Options{Replicas: urls, Transport: s.tp, Seed: 1})
		if err != nil {
			s.close()
			return nil, nil, err
		}
		top = tg.handler("router.ServeHTTP", s.router.Handler())
	}
	s.cl = &client{h: top, tg: tg}
	warm := s.cl.closedLoopOnce(ctx, s.callers, bodies(p.warm))
	return s, warm, nil
}

// close stops the router's probers and the schedulers, then waits for
// every in-process replica handler to return.
func (s *system) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.tp != nil {
		s.tp.wait()
	}
}

// schedStats sums the scheduler counters of every replica.
type schedStats struct {
	active, queued                          int
	promptTokens, hitTokens                 int64
	evictions, preemptions, deferred        int64
	logicalBytes, uniqueBytes, highWaterSum int64
	ttftP50                                 []float64 // per replica, ms
}

func (s *system) stats() schedStats {
	var out schedStats
	for _, srv := range s.servers {
		st := srv.Scheduler().Stats()
		out.active += st.Active
		out.queued += st.Queued
		out.promptTokens += st.PromptTokens
		out.hitTokens += st.PrefixCacheHitTokens
		out.evictions += st.PrefixCacheEvictions
		out.preemptions += st.Preemptions
		out.deferred += st.AdmissionDeferred
		out.logicalBytes += st.KVLogicalBytes
		out.uniqueBytes += st.KVUniqueBytes
		out.highWaterSum += srv.Scheduler().PoolStats().HighWaterBytes
		out.ttftP50 = append(out.ttftP50, ms(st.TTFTp50))
	}
	return out
}

// routerCounters reads router_retries and router_spills from the router's
// /v1/stats; zeros without a router.
func (s *system) routerCounters() (retries, spills float64, err error) {
	if s.router == nil {
		return 0, 0, nil
	}
	rec := httptest.NewRecorder()
	s.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Retries float64 `json:"router_retries"`
		Spills  float64 `json:"router_spills"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, 0, fmt.Errorf("router stats: %w", err)
	}
	return st.Retries, st.Spills, nil
}

// sampler polls the schedulers while a traced phase runs.
type sampler struct {
	active, queued, sharing []float64
	stop, done              chan struct{}
}

const sampleEvery = 10 * time.Millisecond

func (s *system) startSampler() *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			st := s.stats()
			sm.active = append(sm.active, float64(st.active))
			sm.queued = append(sm.queued, float64(st.queued))
			if st.uniqueBytes > 0 {
				sm.sharing = append(sm.sharing, float64(st.logicalBytes)/float64(st.uniqueBytes))
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() {
	close(sm.stop)
	<-sm.done
}
