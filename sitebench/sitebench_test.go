package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{30, 60},   // overlaps the next one: the union is [10, 60]
		{10, 40},   //
		{80, 90},   // disjoint
		{95, 120},  // clipped to [95, 100]
		{150, 200}, // outside the parent
	}
	if got, want := selfTime(parent, children), int64(100-50-10-5); got != want {
		t.Fatalf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	// Summing the children instead of taking their union would give 100-30-30-10-5.
	if got := selfTime(interval{0, 100}, []interval{{0, 100}, {0, 100}}); got != 0 {
		t.Fatalf("fully covered parent: selfTime = %d, want 0", got)
	}
}

func TestExactPercentileRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p      float64
		want   time.Duration
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
		{0, 1, 999},
	} {
		got, beyond := exactPercentile(s, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%g = %d (%d beyond), want %d (%d beyond)", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if got, beyond := exactPercentile(nil, 99); got != 0 || beyond != 0 {
		t.Errorf("empty: %d, %d", got, beyond)
	}
}

func TestWindowedPercentileIgnoresStallInOneWindow(t *testing.T) {
	var samples []timed
	for i := 0; i < 5500; i++ {
		d := time.Millisecond
		if i < 1100 { // the first window is one long stall
			d = time.Second
		}
		samples = append(samples, timed{due: int64(i), d: d})
	}
	r := &result{Percentiles: map[string]percentile{}}
	if got := r.windowedPct("p99", samples, 99); got != 1 {
		t.Fatalf("windowed p99 = %v ms, want 1", got)
	}
	if pc := r.Percentiles["p99"]; pc.Windows != 5 || pc.Beyond < minBeyond || len(r.Invalid) != 0 {
		t.Fatalf("windows %d, beyond %d, invalid %v", pc.Windows, pc.Beyond, r.Invalid)
	}
	// Too few samples for one window's p99: the run is marked invalid.
	r = &result{Percentiles: map[string]percentile{}}
	r.windowedPct("p99", samples[:500], 99)
	if len(r.Invalid) != 1 {
		t.Fatalf("500 samples: invalid = %v, want one reason", r.Invalid)
	}
}

// TestOpenLoopChargesStallToQueuedRequests checks coordinated-omission
// accounting: a 40 ms stall in one request is charged to every request that
// was due while it ran, and those queued requests are not counted as
// generator lateness.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const n, every, stallAt = 100, time.Millisecond, 10
	const stall = 40 * time.Millisecond
	sched := [][]time.Duration{make([]time.Duration, n)}
	for i := range sched[0] {
		sched[0][i] = time.Duration(i) * every
	}
	calls := 0
	st := runOpen(sched, time.Second, phaseOpen, make([]int64, 1), func(o *op) (opKind, error) {
		calls++
		if calls == stallAt+1 {
			time.Sleep(stall)
		}
		return opRead, nil
	})
	lat := st.lat[opRead]
	if len(lat) != n || st.completed() != n || st.unsent != 0 {
		t.Fatalf("completed %d, samples %d, unsent %d", st.completed(), len(lat), st.unsent)
	}
	if lat[stallAt].d < stall {
		t.Fatalf("stalled request latency %v < %v", lat[stallAt].d, stall)
	}
	// Request stallAt+k was due k ms after the stall began and sent when it
	// ended, so it waited about stall-k ms.
	for k := 1; k < 30; k++ {
		if want := stall - time.Duration(k)*every - 2*time.Millisecond; lat[stallAt+k].d < want {
			t.Fatalf("request %d queued behind the stall: latency %v < %v", stallAt+k, lat[stallAt+k].d, want)
		}
	}
	if len(st.late) > n-30 {
		t.Fatalf("%d lateness samples: queued requests were counted as generator lateness", len(st.late))
	}
}
