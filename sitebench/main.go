// Command sitebench is the repository's end-to-end benchmark. It runs one of
// four site workloads against the real servers started inside its own
// process on loopback TCP, driven through the public client libraries:
//
//	kv-hot    Voldemort follow store, 95% get / 5% put, Zipfian, cache-resident
//	kv-cold   Voldemort follow store, 50% get / 50% put, uniform, 5x the cache
//	doc-cdc   Espresso Music database over HTTP with two Databus subscribers
//	activity  ISR-replicated Kafka, produce plus tailing and rewinding consumers
//
// A run sets the stack up several times (reporting the median set-up time),
// then measures a closed-loop capacity phase and an open-loop phase at the
// workload's fixed offered rate, lets subscribers catch up, and verifies every
// acknowledged write. With -trace 1 it reports per-layer metrics instead,
// from spans recorded by decorators around the program's public functions and
// from per-phase deltas of the metrics registry.
//
// Usage, from the repository root:
//
//	bash sitebench/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it holds the run's details
// (parameters, percentile sample counts, set-up times, failures).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"datainfra/internal/cache"
)

// site is one workload's stack as the harness drives it.
type site interface {
	// setup starts the servers and clients, preloads the keyspace and
	// starts any subscribers; it returns once the stack serves.
	setup() error
	// do runs one operation for o.sender.
	do(o *op) (opKind, error)
	// settle waits until subscribers and consumers hold every committed write.
	settle(timeout time.Duration) error
	// verify reads back every acknowledged write and reports each loss.
	verify(r *result)
	// check tests the workload's preconditions over the measured phases.
	check(r *result, measured, open window)
	// deliveries returns, for writes of the open-loop phase, due time to
	// receipt (every subscriber or consumer that received it) and write ack
	// to receipt, negative when the receipt beat the ack to the writer;
	// propName names the per-layer propagation metrics.
	deliveries() (delivery []timed, propagation []time.Duration, propName string)
	// counters are monotone workload-side counts diffed per phase.
	counters() map[string]float64
	// caches snapshots every read cache the stack runs.
	caches() []cache.Stats
	params() map[string]any
	close()
}

// spec is a workload's fixed configuration.
type spec struct {
	rate  float64 // open-loop offered rate, ops/s
	build func(e *env) site
}

// specs fixes each workload's offered rate at about a third or less of its 2-sender
// closed-loop capacity on a 2-vCPU host (kv-hot 15k, kv-cold 4.9k, doc-cdc
// 7.5k, activity 1.8k ops/s): low enough that latency tracks service time
// rather than queueing.
var specs = map[string]spec{
	"kv-hot":   {rate: 5000, build: newKVHot},
	"kv-cold":  {rate: 800, build: newKVCold},
	"doc-cdc":  {rate: 2500, build: newDocCDC},
	"activity": {rate: 400, build: newActivity},
}

// env is what a workload instance is built with.
type env struct {
	dir     string // scratch directory owned by this instance
	seed    int64
	senders int
	rec     *recorder
}

const (
	setupRounds  = 3
	warmup       = 500 * time.Millisecond // closed loop, part of each set-up
	closedShare  = 0.3                    // of --seconds; the open loop gets the rest
	openGrace    = 5 * time.Second
	openLeadIn   = time.Second
	settleWait   = 10 * time.Second
	maxGenLateMs = 50.0 // a later generator marks the run invalid
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "kv-hot, kv-cold, doc-cdc or activity")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds (closed plus open loop)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "sitebench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	base := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(base)
	r, err := execute(*name, sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitebench: %v\n", err)
		return 1
	}
	detail, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitebench: %v\n", err)
		return 1
	}
	fmt.Println(string(detail))
	metrics := r.EndToEnd
	if *trace == 1 {
		metrics = r.PerLayer
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sitebench: %v\n", err)
		return 1
	}
	fmt.Println(string(final))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run reports.
type result struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Senders  int            `json:"senders"`
	RateOps  float64        `json:"offered_rate_ops"`
	Params   map[string]any `json:"params"`
	SetupS   []float64      `json:"setup_s"`
	// ClosedOps is the closed loop's capacity. It is not gated: on a 2-vCPU
	// host its run-to-run spread (0.20-0.34 of the median on doc-cdc and
	// activity) exceeds any usable bound; cpu_us_per_op gates efficiency.
	ClosedOps   float64               `json:"closed_loop_ops"`
	Percentiles map[string]percentile `json:"percentiles"`
	Invalid     []string              `json:"invalid,omitempty"`
	Failures    []string              `json:"failures,omitempty"`
	Attempted   int64                 `json:"attempted"`
	Failed      int64                 `json:"failed"`
	EndToEnd    map[string]metric     `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric     `json:"per_layer,omitempty"`
}

func (r *result) correct() bool { return len(r.Invalid) == 0 && len(r.Failures) == 0 && r.Failed == 0 }

// invalid records a reason the measurement cannot be trusted.
func (r *result) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// fail records a correctness failure; each counts as a failed operation.
func (r *result) fail(format string, args ...any) {
	const keep = 20
	if len(r.Failures) < keep {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	r.Failed++
}

// verified counts n read-back checks as attempted operations.
func (r *result) verified(n int) { r.Attempted += int64(n) }

func (r *result) e2e(name, unit string, v float64) {
	if r.EndToEnd == nil {
		r.EndToEnd = map[string]metric{}
	}
	r.EndToEnd[name] = metric{v, unit}
}

func (r *result) layer(name, unit string, v float64) {
	if r.PerLayer == nil {
		r.PerLayer = map[string]metric{}
	}
	r.PerLayer[name] = metric{v, unit}
}

// account adds a load phase's operations to the totals.
func (r *result) account(s *loopStats, phase string) {
	r.Attempted += s.completed() + s.failed + s.unsent
	r.Failed += s.failed + s.unsent
	if s.firstErr != nil {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %d operations failed, first: %v", phase, s.failed, s.firstErr))
	}
	if s.unsent > 0 {
		r.invalid("%s: %d scheduled requests not sent within %v of the schedule's end", phase, s.unsent, openGrace)
	}
}

// snapshot is the process-wide state at a phase boundary.
type snapshot struct {
	ns      int64 // recorder clock
	reg     regSnap
	caches  []cache.Stats
	ctr     map[string]float64
	cpu     time.Duration
	mem     runtime.MemStats
	rssPeak float64 // MiB
}

func takeSnapshot(w site, rec *recorder) snapshot {
	s := snapshot{ns: rec.now(), reg: snapRegistry(), caches: w.caches(), ctr: w.counters()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rssPeak = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// window is the difference between two snapshots plus what ran in between.
type window struct {
	from, to snapshot
	ops      float64 // completed operations
	writes   float64
	spans    spanSet
}

func (w window) reg(name string) float64 {
	return float64(w.to.reg.value(name) - w.from.reg.value(name))
}

func (w window) regLabel(name, label string) float64 {
	return float64(w.to.reg.label(name, label) - w.from.reg.label(name, label))
}

// histMean is the exact mean of a registry histogram over the window, in the
// histogram's unit (ns for latencies), from its sum and count.
func (w window) histMean(name string) float64 {
	return ratio(float64(w.to.reg.sum(name)-w.from.reg.sum(name)), float64(w.to.reg.count(name)-w.from.reg.count(name)))
}

func (w window) histCount(name string) float64 {
	return float64(w.to.reg.count(name) - w.from.reg.count(name))
}

func (w window) ctr(name string) float64 { return w.to.ctr[name] - w.from.ctr[name] }

// cache sums a cache counter's delta over every cache in the stack.
func (w window) cache(field func(cache.Stats) int64) float64 {
	var d int64
	for _, c := range w.to.caches {
		d += field(c)
	}
	for _, c := range w.from.caches {
		d -= field(c)
	}
	return float64(d)
}

func execute(name string, sp spec, seed int64, total time.Duration, trace bool, base string) (*result, error) {
	senders := runtime.GOMAXPROCS(0)
	rec := newRecorder()
	r := &result{Workload: name, Seed: seed, Senders: senders, RateOps: sp.rate, Percentiles: map[string]percentile{}}
	seq := make([]int64, senders)

	// Set-up is repeated and its median reported; the last stack is measured.
	var w site
	var warm *loopStats
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		w = sp.build(&env{dir: filepath.Join(base, fmt.Sprintf("setup-%d", round)), seed: seed, senders: senders, rec: rec})
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		warm = runClosed(senders, warmup, phaseWarm, seq, w.do)
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			w.close()
		}
	}
	defer w.close()
	r.Params = w.params()
	r.account(warm, "warm-up")

	closedDur := time.Duration(float64(total) * closedShare)
	openDur := total - closedDur
	start := takeSnapshot(w, rec)
	closed := runClosed(senders, closedDur, phaseClosed, seq, w.do)
	var tracedClosed *loopStats
	if trace {
		rec.on.Store(true)
		tracedClosed = runClosed(senders, closedDur, phaseClosed, seq, w.do)
		r.account(tracedClosed, "traced closed loop")
	}
	r.account(closed, "closed loop")
	r.ClosedOps = closed.throughput()

	// An unmeasured lead-in at the offered rate lets the queues the closed
	// loop left behind (disk writeback above all) drain first.
	lead := runOpen(poissonSchedule(senders, sp.rate, openLeadIn, seed+1), openGrace, phaseWarm, seq, w.do)
	r.account(lead, "open-loop lead-in")
	sched := poissonSchedule(senders, sp.rate, openDur, seed)
	openFrom := takeSnapshot(w, rec)
	open := runOpen(sched, openGrace, phaseOpen, seq, w.do)
	openTo := takeSnapshot(w, rec)
	r.account(open, "open loop")
	if err := w.settle(settleWait); err != nil {
		r.fail("settle: %v", err)
	}
	w.verify(r)

	ow := window{from: openFrom, to: openTo, ops: float64(open.completed()), writes: float64(open.done[opWrite])}
	mw := window{from: start, to: openTo}
	w.check(r, mw, ow)

	late := sortedCopy(open.late)
	lateMs := genLateMs(late)
	if lateMs > maxGenLateMs {
		r.invalid("open-loop generator ran late: p99 %.3f ms > %.1f ms", lateMs, maxGenLateMs)
	}
	delivery, propagation, propName := w.deliveries()

	if !trace {
		r.e2e("setup_s", "s", median(r.SetupS))
		// Latency is reported with the run's details, not gated: on a shared
		// 2-vCPU VM, host episodes lasting minutes move p50 by 1.5-10x
		// across consecutive runs while CPU time per operation moves less
		// than 5%, and the tail spreads wider still.
		for _, m := range []struct {
			name    string
			samples []timed
		}{{"read", open.lat[opRead]}, {"write", open.lat[opWrite]}, {"delivery", delivery}} {
			for _, p := range []float64{50, 90, 99} {
				r.windowedPct(fmt.Sprintf("%s_p%g_ms", m.name, p), m.samples, p)
			}
		}
		r.e2e("cpu_us_per_op", "us", ratio(float64(openTo.cpu-openFrom.cpu)/1e3, ow.ops))
		r.e2e("peak_rss_mb", "MiB", openTo.rssPeak)
		return r, nil
	}

	rec.on.Store(false)
	ow.spans = indexSpans(rec.between(openFrom.ns, openTo.ns))
	perLayer(r, ow, propagation, propName, late)
	untraced, traced := r.ClosedOps, tracedClosed.throughput()
	r.layer("harness.throughput_ops", "ops/s", untraced)
	r.layer("harness.trace_overhead_pct", "%", ratio(untraced-traced, untraced)*100)
	r.layer("harness.error_ratio", "ratio", ratio(float64(r.Failed), float64(r.Attempted)))
	spanDir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.dump(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

// genLateMs is the p99 of the generator's lateness, or its maximum when too
// few requests found their sender idle for the p99 to have ten beyond it.
func genLateMs(sorted []time.Duration) float64 {
	v, beyond := exactPercentile(sorted, 99)
	if beyond < minBeyond && len(sorted) > 0 {
		v = sorted[len(sorted)-1]
	}
	return float64(v) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
