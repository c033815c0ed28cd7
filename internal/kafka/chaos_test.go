package kafka

// Chaos test for the remote broker path (§V): a TCP proxy in front of a real
// broker deterministically kills connections at accept according to a seeded
// fault schedule. The RemoteBroker's retry/backoff layer must ride out the
// drops so that every produce is acknowledged, acknowledged messages are
// never lost, and the log remains contiguous and in order.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datainfra/internal/resilience"
)

// startDropProxy forwards TCP connections to target, dropping some at accept
// time and killing established ones on the client→broker read path
// ("proxy.conn.read"). A kill discards the bytes it was about to forward, so
// drops land before a complete request is forwarded — the broker only acts
// on full length-prefixed frames — and a dropped connection can never have
// half-applied a request.
//
// maxBurst > 0 caps the drops between two responses reaching the client, so
// the schedule models transient drops rather than an outage. Which request a
// drawn fault hits depends on how the kernel splits the byte stream into
// reads, so without a cap a seeded schedule still yields an occasional long
// run of failures; maxBurst 0 leaves the schedule uncapped.
func startDropProxy(t *testing.T, target string, inj *resilience.DeterministicInjector, maxBurst int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var burst atomic.Int32 // drops since a response last reached the client
	inject := func(op string) error {
		if maxBurst > 0 && burst.Load() >= maxBurst {
			return nil
		}
		err := inj.Inject(op)
		if err != nil {
			burst.Add(1)
		}
		return err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if inject("proxy.accept") != nil {
				c.Close()
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer up.Close()
				go func() { _, _ = io.Copy(up, faultyReader{c, inject}) }()
				_, _ = io.Copy(burstResetWriter{c, &burst}, up)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// faultyReader injects "proxy.conn.read" once bytes have arrived and before
// they are passed on; a fault closes the connection and discards them. (A
// fault drawn before the read would instead land right after the previous
// request was forwarded, failing a request the broker then still applies —
// possibly after the client's retry and its next request.)
type faultyReader struct {
	c      net.Conn
	inject func(op string) error
}

func (r faultyReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	if n > 0 {
		if ferr := r.inject("proxy.conn.read"); ferr != nil {
			r.c.Close()
			return 0, ferr
		}
	}
	return n, err
}

// burstResetWriter forwards broker responses to the client, ending the
// current drop burst once one is through.
type burstResetWriter struct {
	c     net.Conn
	burst *atomic.Int32
}

func (w burstResetWriter) Write(p []byte) (int, error) {
	n, err := w.c.Write(p)
	if err == nil {
		w.burst.Store(0)
	}
	return n, err
}

// TestChaosRemoteBrokerRidesOutConnectionDrops produces and consumes through
// a proxy that kills 40% of connections. Invariants: every produce call is
// eventually acknowledged by the retry layer, no acknowledged message is
// lost, and fetched offsets advance monotonically with no gaps.
func TestChaosRemoteBrokerRidesOutConnectionDrops(t *testing.T) {
	b := newTestBroker(t)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	inj := resilience.NewInjector(5)
	inj.Plan("proxy.accept", resilience.FaultPlan{DropProb: 0.4})
	inj.Plan("proxy.conn.read", resilience.FaultPlan{DropProb: 0.25})
	// Each drop fails one attempt. Bursts of at most 3 stay under the
	// breaker's threshold of 8 consecutive failures even if every drop also
	// cost a response already on its way; a longer burst is an outage, which
	// the breaker fails fast on by design.
	proxyAddr := startDropProxy(t, addr, inj, 3)

	rb := DialBroker(proxyAddr, time.Second)
	defer rb.Close()
	rb.SetRetryPolicy(resilience.Policy{
		MaxAttempts:    10,
		InitialBackoff: 200 * time.Microsecond,
		MaxBackoff:     5 * time.Millisecond,
	})

	const n = 50
	acked := make(map[string]int64, n)
	var lastOff int64 = -1
	for i := 0; i < n; i++ {
		payload := fmt.Sprintf("chaos-%d", i)
		off, err := rb.Produce("chaos", 0, NewMessageSet([]byte(payload)))
		if err != nil {
			t.Fatalf("produce %d never acknowledged through drops: %v", i, err)
		}
		if off <= lastOff {
			t.Fatalf("produce %d: offset %d not monotonically increasing after %d", i, off, lastOff)
		}
		lastOff = off
		acked[payload] = off
	}
	if inj.Total() == 0 {
		t.Fatal("no connections dropped; chaos run is vacuous")
	}
	t.Logf("acked %d produces through %s", n, inj)

	// Consume everything back through the same flaky proxy.
	var got []string
	offset := int64(0)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("consumed only %d of %d messages", len(got), n)
		}
		chunk, err := rb.Fetch("chaos", 0, offset, 1<<20)
		if err != nil {
			t.Fatalf("fetch at offset %d: %v", offset, err)
		}
		msgs, err := Decode(chunk, offset)
		if err != nil {
			t.Fatalf("decode at offset %d: %v", offset, err)
		}
		for _, m := range msgs {
			if m.NextOffset <= offset {
				t.Fatalf("offsets rewound: next %d after %d", m.NextOffset, offset)
			}
			offset = m.NextOffset
			got = append(got, string(m.Payload))
		}
	}

	// Produce over a lossy transport is at-least-once: a connection killed
	// between the broker applying a request and the ack reaching the client
	// makes the retry append a duplicate. Duplicates of one produce are
	// adjacent (the producer is synchronous), so collapsing runs must yield
	// exactly the produce sequence — any other shape means loss or disorder.
	var dedup []string
	for _, payload := range got {
		if len(dedup) == 0 || dedup[len(dedup)-1] != payload {
			dedup = append(dedup, payload)
		}
	}
	if len(dedup) != n {
		t.Fatalf("log holds %d distinct messages, want %d (raw %d)", len(dedup), n, len(got))
	}
	for i, payload := range dedup {
		if want := fmt.Sprintf("chaos-%d", i); payload != want {
			t.Fatalf("log position %d = %q, want %q: order violated", i, payload, want)
		}
	}
	if dups := len(got) - len(dedup); dups > 0 {
		t.Logf("%d retry duplicates (at-least-once), none lost", dups)
	}
	for payload := range acked {
		found := false
		for _, g := range got {
			if g == payload {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("acknowledged message %q lost", payload)
		}
	}
}

// TestChaosMuxConcurrentProduceFetchNoCrossing runs one producer per
// partition plus long-poll fetches, all multiplexed over the single shared
// connection, through a proxy injecting latency and mid-flight kills. The
// correlation invariant: every message fetched from partition p must have
// been produced by partition p's producer, in order (modulo adjacent
// at-least-once duplicates) — responses crossing correlation ids would
// surface as foreign payloads, disorder, or malformed fixed-size responses.
// Every request must resolve; none may hang on an abandoned slot.
func TestChaosMuxConcurrentProduceFetchNoCrossing(t *testing.T) {
	b := newTestBroker(t)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	inj := resilience.NewInjector(23)
	inj.Plan("proxy.conn.read", resilience.FaultPlan{
		DropProb: 0.02, LatencyProb: 0.10, Latency: 300 * time.Microsecond,
	})
	proxyAddr := startDropProxy(t, addr, inj, 0)

	rb := DialBroker(proxyAddr, time.Second)
	defer rb.Close()
	rb.SetRetryPolicy(resilience.Policy{
		MaxAttempts:    12,
		InitialBackoff: 200 * time.Microsecond,
		MaxBackoff:     5 * time.Millisecond,
	})

	// One dropped connection fails every request in flight on the shared mux
	// conn at once, which can trip the circuit breaker — a deliberate
	// fail-fast, not a hang. Requests ride out open windows here the way a
	// real client would: back off briefly and reissue.
	rideBreaker := func(f func() error) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			err := f()
			if err == nil || !errors.Is(err, resilience.ErrBreakerOpen) || time.Now().After(deadline) {
				return err
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	const producers, msgs = 2, 60 // one producer per partition (test brokers have 2)
	// Prime every partition with its first message up front: partitions
	// materialize on first produce, and a long-poll fetch against a
	// not-yet-created partition is an application error, not a retryable one.
	for p := 0; p < producers; p++ {
		if _, err := rb.Produce("crossing", p, NewMessageSet([]byte(fmt.Sprintf("p%d-m0", p)))); err != nil {
			t.Fatalf("prime partition %d: %v", p, err)
		}
	}
	errCh := make(chan error, producers*2)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var lastOff int64 = -1
			for i := 1; i < msgs; i++ {
				payload := fmt.Sprintf("p%d-m%d", p, i)
				var off int64
				err := rideBreaker(func() (err error) {
					off, err = rb.Produce("crossing", p, NewMessageSet([]byte(payload)))
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("p%d produce %d never resolved: %v", p, i, err)
					return
				}
				if off <= lastOff {
					errCh <- fmt.Errorf("p%d produce %d: offset %d after %d — response crossed?", p, i, off, lastOff)
					return
				}
				lastOff = off
				if i%8 == 0 { // interleave fixed-shape requests on the same conn
					if err := rideBreaker(func() error {
						_, _, err := rb.Offsets("crossing", p)
						return err
					}); err != nil {
						errCh <- fmt.Errorf("p%d offsets never resolved: %v", p, err)
						return
					}
				}
			}
		}(p)
		// A concurrent long-poll reader per partition: FetchWait requests park
		// server-side on the shared mux conn while produces keep flowing.
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var offset int64
			var got []string
			deadline := time.Now().Add(45 * time.Second)
			for len(got) < msgs {
				if time.Now().After(deadline) {
					errCh <- fmt.Errorf("p%d reader: only %d/%d messages before deadline", p, len(got), msgs)
					return
				}
				var chunk []byte
				err := rideBreaker(func() (err error) {
					chunk, err = rb.FetchWait("crossing", p, offset, 1<<20, 50*time.Millisecond)
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("p%d fetch-wait at %d never resolved: %v", p, offset, err)
					return
				}
				if len(chunk) == 0 {
					continue // long-poll timed out; producer still working
				}
				decoded, err := Decode(chunk, offset)
				if err != nil {
					errCh <- fmt.Errorf("p%d decode at %d: %v", p, offset, err)
					return
				}
				for _, m := range decoded {
					offset = m.NextOffset
					s := string(m.Payload)
					var mp, mi int
					if _, err := fmt.Sscanf(s, "p%d-m%d", &mp, &mi); err != nil || mp != p {
						errCh <- fmt.Errorf("partition %d holds foreign payload %q: responses crossed correlation ids", p, s)
						return
					}
					if len(got) > 0 && got[len(got)-1] == s {
						continue // adjacent at-least-once duplicate
					}
					if mi != len(got) {
						errCh <- fmt.Errorf("partition %d: message %q at position %d — order violated", p, s, len(got))
						return
					}
					got = append(got, s)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos workload hung: an in-flight mux request never resolved")
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if inj.Total() == 0 {
		t.Fatal("no faults injected; chaos run is vacuous")
	}
	t.Logf("mux produce/fetch-wait survived %s", inj)
}
