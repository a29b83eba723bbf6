package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{20, 1}, {50, 3}, {99, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

// One failure in a hundred leaves p99 on a real sample; two push it to
// +Inf, because a failed request counts as missing every limit.
func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	xs = append(xs, failedLatency)
	if got := percentile(xs, 99); got != 99 {
		t.Fatalf("p99 with 1%% failed = %v, want 99", got)
	}
	xs[0] = failedLatency
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failed = %v, want +Inf", got)
	}
	if got := percentile(xs, 50); got != 51 {
		t.Fatalf("p50 = %v, want 51: failures rank above every sample", got)
	}
}

func TestLatenciesChargeFailuresAndRefusals(t *testing.T) {
	t0 := time.Unix(0, 0)
	ok := &reply{due: t0, sent: t0, status: http.StatusOK, events: []time.Time{t0.Add(4 * time.Millisecond), t0.Add(6 * time.Millisecond)}}
	refused := &reply{due: t0, sent: t0, status: http.StatusTooManyRequests}
	broken := &reply{due: t0, sent: t0, status: http.StatusOK, bad: "bad event", events: []time.Time{t0.Add(time.Millisecond)}}
	ttft, itl, _ := latencies([]*reply{ok, refused, broken})
	if ttft[0] != 4 || !math.IsInf(ttft[1], 1) || !math.IsInf(ttft[2], 1) {
		t.Fatalf("ttft = %v, want [4 +Inf +Inf]", ttft)
	}
	if len(itl) != 1 || itl[0] != 2 {
		t.Fatalf("itl = %v, want [2]", itl)
	}
}
