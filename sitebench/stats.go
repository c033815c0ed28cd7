package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile is one exact order statistic of a sample set.
type percentile struct {
	P       float64 `json:"p"`
	ValueMs float64 `json:"value_ms"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`  // fewest beyond the percentile in any window
	Windows int     `json:"windows"` // the value is the median over these
}

// exactPercentile returns the nearest-rank p-th percentile of sorted (the
// smallest value with at least p% of the samples at or below it) and how
// many samples lie strictly beyond that rank.
func exactPercentile(sorted []time.Duration, p float64) (time.Duration, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps float error (99.9/100*1000 = 999.0000000000001)
	// from pushing an exact rank one up.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(parts ...[]time.Duration) []time.Duration {
	var out []time.Duration
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct computes percentile p of sorted and records it under name in the run
// notes; a percentile without minBeyond samples beyond it invalidates the run.
func (r *result) pct(name string, sorted []time.Duration, p float64) float64 {
	v, beyond := exactPercentile(sorted, p)
	ms := float64(v) / float64(time.Millisecond)
	r.Percentiles[name] = percentile{P: p, ValueMs: ms, Samples: len(sorted), Beyond: beyond, Windows: 1}
	if beyond < minBeyond {
		r.invalid("%s: %d samples leave only %d beyond p%g (need %d)", name, len(sorted), beyond, p, minBeyond)
	}
	return ms
}

// maxWindows bounds how many windows windowedPct splits a phase into.
const maxWindows = 5

// windowedPct splits the samples in due-time order into as many equal
// windows (at most maxWindows) as leave minBeyond samples beyond percentile p
// in each, and returns the median of the windows' exact percentiles. A stall
// confined to one window moves the result no more than one window's worth.
func (r *result) windowedPct(name string, samples []timed, p float64) float64 {
	s := append([]timed(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].due < s[j].due })
	need := int(math.Ceil(float64(minBeyond+1) / (1 - p/100)))
	k := max(1, min(maxWindows, len(s)/need))
	vals := make([]float64, 0, k)
	fewest := len(s)
	for w := 0; w < k; w++ {
		part := make([]time.Duration, 0, len(s)/k+1)
		for _, t := range s[w*len(s)/k : (w+1)*len(s)/k] {
			part = append(part, t.d)
		}
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		v, beyond := exactPercentile(part, p)
		fewest = min(fewest, beyond)
		vals = append(vals, float64(v)/float64(time.Millisecond))
	}
	ms := median(vals)
	r.Percentiles[name] = percentile{P: p, ValueMs: ms, Samples: len(s), Beyond: fewest, Windows: k}
	if fewest < minBeyond {
		r.invalid("%s: %d samples leave only %d beyond p%g (need %d)", name, len(s), fewest, p, minBeyond)
	}
	return ms
}

// interval is a closed time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the union of its children's
// intervals clipped to it. Children may overlap (quorum replica calls run in
// parallel), so summing their durations would over-subtract.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return (parent.end - parent.start) - covered
}

// span is one timed call across a layer boundary, recorded by the
// benchmark's decorators around the program's public functions.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // events, bytes or messages the call moved
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while tracing is on; the decorators are
// always assembled, and cost one atomic load when it is off.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Int64
	epoch  time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns nanoseconds since the recorder's epoch (monotonic).
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span when tracing is on; the returned id is 0 otherwise.
func (r *recorder) begin() (id, start int64) {
	if !r.on.Load() {
		return 0, 0
	}
	return r.nextID.Add(1), r.now()
}

// end records a span opened by begin; a zero id is a no-op.
func (r *recorder) end(id, start, parent, req int64, name string, n int64, err error) {
	if id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: r.now(), N: n, Err: err != nil}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// between returns the spans that started inside [from, to).
func (r *recorder) between(from, to int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// dump writes every span as one JSON object per line.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSet indexes one phase's spans for the per-layer metrics.
type spanSet struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanSet {
	ss := spanSet{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ss.byName[s.Name] = append(ss.byName[s.Name], s)
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// meanUs is the mean duration in microseconds of the named spans (0 if none).
func (ss spanSet) meanUs(names ...string) float64 {
	var sum, n int64
	for _, name := range names {
		for _, s := range ss.byName[name] {
			sum += s.dur()
			n++
		}
	}
	return ratio(float64(sum)/1e3, float64(n))
}

// count is the number of named spans.
func (ss spanSet) count(names ...string) int {
	n := 0
	for _, name := range names {
		n += len(ss.byName[name])
	}
	return n
}

// selfUs is the mean self time in microseconds of the named spans.
func (ss spanSet) selfUs(names ...string) float64 {
	var sum, n int64
	for _, name := range names {
		for _, s := range ss.byName[name] {
			kids := ss.children[s.ID]
			ivs := make([]interval, len(kids))
			for i, k := range kids {
				ivs[i] = interval{k.Start, k.End}
			}
			sum += selfTime(interval{s.Start, s.End}, ivs)
			n++
		}
	}
	return ratio(float64(sum)/1e3, float64(n))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
