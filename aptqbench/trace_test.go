package main

import (
	"context"
	"testing"
	"time"
)

// Self time subtracts the union of the direct children, clipped to the
// parent; a grandchild counts only against its own parent.
func TestSelfTimesOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "b.1", Start: 25, End: 35},
		{ID: 6, Parent: 1, Name: "d", Start: 50, End: 60}, // abuts b
	}
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self %v, want %v", id, got[id], w)
		}
	}
}

func TestTracingLinksParentsAndRequests(t *testing.T) {
	tg := &tracing{}
	ctx, end := tg.start(context.Background(), "off")
	end()
	if ctx != context.Background() {
		t.Fatal("a disabled tracer changed the context")
	}
	tr := newTracer()
	tg.p.Store(tr)
	ctx, endOuter := tg.start(withRequest(context.Background(), 7), "outer")
	_, endInner := tg.start(ctx, "inner")
	time.Sleep(time.Millisecond)
	endInner()
	endInner() // closing twice records once
	endOuter()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	outer, inner := spans[0], spans[1]
	if inner.Parent != outer.ID || outer.Parent != 0 || inner.Req != 7 || outer.Req != 7 {
		t.Fatalf("outer %+v inner %+v", outer, inner)
	}
	outerDur, innerDur := time.Duration(outer.End-outer.Start), time.Duration(inner.End-inner.Start)
	if self := selfTimes(spans)[outer.ID]; self != outerDur-innerDur {
		t.Fatalf("outer self %v with duration %v and child %v", self, outerDur, innerDur)
	}
}
