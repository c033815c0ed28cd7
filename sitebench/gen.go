package main

import (
	"math/rand"
	"sync"
	"time"
)

// opKind classifies an operation for the read/write latency split.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// phaseKind names the part of a run an operation belongs to.
type phaseKind uint8

const (
	phaseWarm phaseKind = iota
	phaseClosed
	phaseOpen
)

// op is one operation handed to a workload by a sender.
type op struct {
	sender int
	phase  phaseKind
	due    time.Time // schedule time in the open-loop phase; zero otherwise
	req    int64     // request id shared by the operation's spans
}

// doFunc runs one operation and reports its kind.
type doFunc func(o *op) (opKind, error)

// loopStats is what one load phase observed.
type loopStats struct {
	elapsed  time.Duration
	done     [2]int64 // completed operations by kind
	failed   int64
	unsent   int64           // open loop: scheduled requests never sent
	lat      [2][]timed      // open loop: latency from due time, by kind
	late     []time.Duration // open loop: generator lateness of requests whose sender was idle at their due time
	firstErr error
}

func (s *loopStats) completed() int64 { return s.done[0] + s.done[1] }

func (s *loopStats) merge(o *loopStats) {
	for k := range s.done {
		s.done[k] += o.done[k]
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.failed += o.failed
	s.unsent += o.unsent
	s.late = append(s.late, o.late...)
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// timed is one latency sample and the due time (unix ns) it counts from.
type timed struct {
	due int64
	d   time.Duration
}

// throughput is completed operations per second.
func (s *loopStats) throughput() float64 { return float64(s.completed()) / s.elapsed.Seconds() }

func (s *loopStats) record(kind opKind, err error) {
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.done[kind]++
}

// reqID packs a sender and its per-sender sequence number.
func reqID(sender int, seq int64) int64 { return int64(sender)<<40 | seq }

// runClosed drives senders closed-loop: each sends its next request only when
// the previous one has completed, until d has passed.
func runClosed(senders int, d time.Duration, phase phaseKind, seq []int64, do doFunc) *loopStats {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*loopStats, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		parts[s] = &loopStats{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := parts[s]
			for time.Now().Before(deadline) {
				seq[s]++
				o := op{sender: s, phase: phase, req: reqID(s, seq[s])}
				kind, err := do(&o)
				st.record(kind, err)
			}
		}(s)
	}
	wg.Wait()
	total := &loopStats{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// poissonSchedule returns, per sender, the due offsets of a Poisson arrival
// process of rate/senders requests per second lasting d. The union over
// senders is a Poisson process of the full rate.
func poissonSchedule(senders int, rate float64, d time.Duration, seed int64) [][]time.Duration {
	out := make([][]time.Duration, senders)
	per := rate / float64(senders)
	for s := range out {
		r := rand.New(rand.NewSource(seed*7919 + int64(s)))
		var t float64
		for {
			t += r.ExpFloat64() / per
			due := time.Duration(t * float64(time.Second))
			if due >= d {
				break
			}
			out[s] = append(out[s], due)
		}
	}
	return out
}

// runOpen drives an open loop: sender s works through sched[s] in order,
// sending each request at its due time or, if it is still busy, as soon as it
// is free. Latency counts from the due time, so a stall is charged to every
// request queued behind it. Requests not sent within grace after the last
// due time are counted as unsent.
func runOpen(sched [][]time.Duration, grace time.Duration, phase phaseKind, seq []int64, do doFunc) *loopStats {
	start := time.Now()
	var last time.Duration
	for _, s := range sched {
		if n := len(s); n > 0 && s[n-1] > last {
			last = s[n-1]
		}
	}
	cutoff := start.Add(last + grace)
	parts := make([]*loopStats, len(sched))
	var wg sync.WaitGroup
	for s := range sched {
		parts[s] = &loopStats{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := parts[s]
			for i, off := range sched[s] {
				due := start.Add(off)
				now := time.Now()
				if now.After(cutoff) {
					st.unsent += int64(len(sched[s]) - i)
					return
				}
				idle := now.Before(due)
				if idle {
					time.Sleep(due.Sub(now))
				}
				sent := time.Now()
				if idle {
					st.late = append(st.late, sent.Sub(due))
				}
				seq[s]++
				o := op{sender: s, phase: phase, due: due, req: reqID(s, seq[s])}
				kind, err := do(&o)
				st.record(kind, err)
				if err == nil {
					st.lat[kind] = append(st.lat[kind], timed{due.UnixNano(), time.Since(due)})
				}
			}
		}(s)
	}
	wg.Wait()
	total := &loopStats{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
