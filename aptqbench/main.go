// Command aptqbench is the repository's end-to-end benchmark: it serves
// APTQ nano-7B, quantized at R=0.75 with 4/2 bits and served packed, to an
// in-process load generator through the real HTTP handlers (the router's
// over an in-memory transport for the multi-replica workload), and times
// the quantize pipeline. See BENCHMARK.json at the repository root for the
// workloads and metrics, and README.md in this directory for how to run it.
//
//	bash aptqbench/run.sh --workload decode-heavy --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). The run also writes its environment, every metric and,
// when traced, the spans under .bench_build/aptqbench/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: drives calibration data, prompts, arrivals and sampling seeds")
	seconds := flag.Int("seconds", 25, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the window untraced then traced and reports per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "aptqbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := execute(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aptqbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aptqbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute sets up, measures, verifies and reports one run.
func execute(ctx context.Context, w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	env := stampEnvironment(w.name, seed)
	steal0, total0, ok0 := cpuTimes()
	r := &run{w: w}
	roundWindow := window
	if traced {
		roundWindow = window / 2 // an untraced and a traced half
	}
	r.p = makePlan(w, modelConfig().Vocab, seed, time.Duration(openShare*float64(roundWindow)))
	if err := r.setUp(ctx); err != nil {
		return nil, err
	}
	defer r.sys.close()
	env.PeakRSSWindowed = resetPeakRSS()

	// A traced run measures its traced half first, so the schedulers'
	// recent-TTFT windows hold that half's requests rather than the
	// untraced half's saturation phase.
	var tracedRound *round
	t := newTracer()
	if traced {
		var err error
		if tracedRound, err = r.measure(ctx, roundWindow, t); err != nil {
			return nil, err
		}
		r.verify(tracedRound)
	}
	plain, err := r.measure(ctx, roundWindow, nil)
	if err != nil {
		return nil, err
	}
	r.verify(plain)
	env.WindowSteal = []float64{plain.steal}
	if plain.steal > stealLimit {
		// The host took the CPU this window needed: measure once more and
		// report the window it disturbed less. Both are verified.
		again, err := r.measure(ctx, roundWindow, nil)
		if err != nil {
			return nil, err
		}
		r.verify(again)
		env.WindowSteal = append(env.WindowSteal, again.steal)
		if again.steal < plain.steal {
			plain = again
		}
	}
	e2e := r.endToEndValues(plain)
	digest := r.setupPipes[0].digest
	report := map[string]any{"packed_digest": digest, "avg_bits": r.sys.pipe.avgBits, "end_to_end": jsonSafe(e2e), "latency_detail": jsonSafe(latencyDetail(plain))}

	res := &result{Metrics: map[string]value{}}
	defs, values := endToEnd, e2e
	var spans []span
	if traced {
		pl := r.perLayerValues(ctx, t, tracedRound, plain)
		report["per_layer"] = jsonSafe(pl)
		report["traced_end_to_end"] = jsonSafe(r.endToEndValues(tracedRound))
		defs, values = perLayer, pl
		spans = t.snapshot()
	}
	res.Correct = len(r.defects) == 0
	res.Attempted, res.Failed = r.attempted, r.failed
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: finite(values[d.name]), Unit: d.unit}
	}
	report["correct"], report["attempted"], report["failed"] = res.Correct, res.Attempted, res.Failed
	report["failed_share"] = share(float64(r.failed), float64(r.attempted))
	report["mismatches"] = r.defects
	for _, d := range r.defects {
		fmt.Fprintf(os.Stderr, "aptqbench: mismatch: %s\n", d)
	}
	env.StealShare = stealSince(steal0, total0, ok0)
	if plain.steal > stealLimit {
		fmt.Fprintf(os.Stderr, "aptqbench: warning: the host withheld %.0f%% of the CPU time the measured window wanted (limit %.0f%%); its timings measure the host, not the program\n", 100*plain.steal, 100*stealLimit)
	}
	report["environment"] = env
	envLine, _ := json.Marshal(env)
	fmt.Printf("packed_digest %s\n", digest)
	fmt.Printf("env %s\n", envLine)
	if err := writeReport(filepath.Join(".bench_build", "aptqbench"), fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, boolInt(traced)), report, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// finite maps +Inf (a percentile that fell on a failed request) to the
// largest float and NaN (an empty sample) to 0, since JSON has neither.
func finite(x float64) float64 {
	switch {
	case math.IsInf(x, 1):
		return math.MaxFloat64
	case math.IsNaN(x):
		return 0
	}
	return x
}

// jsonSafe spells out the values JSON cannot carry.
func jsonSafe(m map[string]float64) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			out[k] = fmt.Sprint(v)
			continue
		}
		out[k] = v
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeReport writes the run's report as JSON and, when traced, its spans
// as JSON lines.
func writeReport(dir, name string, report map[string]any, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+"-spans.jsonl"))
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
