package bootstrap

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datainfra/internal/databus"
)

func feed(t testing.TB, s *Server, scn int64, key, payload string, op databus.Op) {
	t.Helper()
	err := s.OnEvent(databus.Event{
		SCN: scn, TxnID: scn, EndOfTxn: true, Source: "s",
		Op: op, Key: []byte(key), Payload: []byte(payload),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsolidatedDeltaCollapsesUpdates(t *testing.T) {
	s := New()
	// 9 updates to key "hot", 1 to key "cold"
	for i := 1; i <= 9; i++ {
		feed(t, s, int64(i), "hot", fmt.Sprintf("v%d", i), databus.OpUpsert)
	}
	feed(t, s, 10, "cold", "c1", databus.OpUpsert)

	events, resume, err := s.ConsolidatedDelta(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("delta has %d events, want 2 (collapsed)", len(events))
	}
	if resume != 10 {
		t.Fatalf("resume = %d", resume)
	}
	byKey := map[string]string{}
	for _, e := range events {
		byKey[string(e.Key)] = string(e.Payload)
	}
	if byKey["hot"] != "v9" || byKey["cold"] != "c1" {
		t.Fatalf("delta = %v", byKey)
	}
}

func TestConsolidatedDeltaSinceMidStream(t *testing.T) {
	s := New()
	for i := 1; i <= 10; i++ {
		feed(t, s, int64(i), fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i), databus.OpUpsert)
	}
	events, _, err := s.ConsolidatedDelta(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// SCNs 8,9,10 touch k2,k0,k1 — three distinct keys
	if len(events) != 3 {
		t.Fatalf("delta since 7 = %d events", len(events))
	}
	for _, e := range events {
		if e.SCN <= 7 {
			t.Fatalf("delta leaked SCN %d", e.SCN)
		}
		if !e.EndOfTxn {
			t.Fatal("consolidated event not marked as its own txn")
		}
	}
}

func TestConsolidatedDeltaEquivalentToFold(t *testing.T) {
	// Property-style check: consolidated delta == last-writer fold of the log.
	s := New()
	state := map[string]string{}
	for i := 1; i <= 200; i++ {
		k := fmt.Sprintf("k%d", i%17)
		v := fmt.Sprintf("v%d", i)
		feed(t, s, int64(i), k, v, databus.OpUpsert)
		state[k] = v
	}
	events, _, err := s.ConsolidatedDelta(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(state) {
		t.Fatalf("delta %d rows, fold %d", len(events), len(state))
	}
	for _, e := range events {
		if state[string(e.Key)] != string(e.Payload) {
			t.Fatalf("row %s: delta %q, fold %q", e.Key, e.Payload, state[string(e.Key)])
		}
	}
}

func TestDeltaFailsBeyondLog(t *testing.T) {
	s := New()
	for i := 5; i <= 10; i++ {
		feed(t, s, int64(i), "k", "v", databus.OpUpsert)
	}
	s.ApplyOnce()
	s.TrimLog(8)
	if _, _, err := s.ConsolidatedDelta(5, nil); err == nil {
		t.Fatal("delta served beyond trimmed log")
	}
	// but a recent delta still works
	if _, _, err := s.ConsolidatedDelta(8, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotServesAppliedState(t *testing.T) {
	s := New()
	for i := 1; i <= 10; i++ {
		feed(t, s, int64(i), fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i), databus.OpUpsert)
	}
	s.ApplyOnce()
	if s.SnapshotLen() != 4 {
		t.Fatalf("snapshot rows = %d", s.SnapshotLen())
	}
	state := map[string]string{}
	u, err := s.Snapshot(nil, func(e databus.Event) error {
		state[string(e.Key)] = string(e.Payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if u != 10 {
		t.Fatalf("U = %d", u)
	}
	if len(state) != 4 || state["k2"] != "v10" {
		t.Fatalf("state = %v", state)
	}
}

func TestDeleteRemovesFromSnapshot(t *testing.T) {
	s := New()
	feed(t, s, 1, "gone", "v", databus.OpUpsert)
	feed(t, s, 2, "stays", "v", databus.OpUpsert)
	feed(t, s, 3, "gone", "", databus.OpDelete)
	s.ApplyOnce()
	if s.SnapshotLen() != 1 {
		t.Fatalf("snapshot rows = %d", s.SnapshotLen())
	}
}

// TestE7SnapshotConsistency reproduces §III.C's serving algorithm guarantee:
// a snapshot scanned while writes keep arriving is made consistent at U by
// replaying everything since the scan started.
func TestE7SnapshotConsistency(t *testing.T) {
	s := New()
	const keys = 50
	var scn int64
	type write struct {
		scn  int64
		k, v string
	}
	var committed []write // every source write, in SCN order
	commit := func(k, v string) {
		scn++
		feed(t, s, scn, k, v, databus.OpUpsert)
		committed = append(committed, write{scn, k, v})
	}
	for i := 0; i < keys; i++ {
		commit(fmt.Sprintf("k%d", i), fmt.Sprintf("v0-%d", i))
	}
	s.ApplyOnce()

	// Writer keeps updating rows while the snapshot is being served.
	var wg sync.WaitGroup
	stopWriter := make(chan struct{})
	var writerMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := 1
		for {
			select {
			case <-stopWriter:
				return
			default:
			}
			writerMu.Lock()
			for i := 0; i < keys; i += 7 {
				commit(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d-%d", gen, i))
			}
			writerMu.Unlock()
			gen++
			time.Sleep(time.Millisecond)
			s.ApplyOnce() // applier running concurrently too
		}
	}()

	// Client builds its state from the snapshot+replay.
	clientState := map[string]string{}
	u, err := s.Snapshot(nil, func(e databus.Event) error {
		if e.Op == databus.OpDelete {
			delete(clientState, string(e.Key))
		} else {
			clientState[string(e.Key)] = string(e.Payload)
		}
		time.Sleep(100 * time.Microsecond) // a deliberately slow scan
		return nil
	})
	close(stopWriter)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: fold every source write up to U. (The writer may commit
	// past U before it sees stopWriter, so the reference cannot be the
	// server's consolidated delta: that keeps only each row's final event,
	// which for a row rewritten after U lies beyond U.)
	ref := map[string]string{}
	for _, w := range committed {
		if w.scn <= u {
			ref[w.k] = w.v
		}
	}
	for k, v := range ref {
		if clientState[k] != v {
			t.Fatalf("key %s: client %q, source-at-U %q (U=%d)", k, clientState[k], v, u)
		}
	}
	if len(clientState) != len(ref) {
		t.Fatalf("client has %d rows, source-at-U %d", len(clientState), len(ref))
	}
}

func TestCatchupPrefersDeltaThenSnapshot(t *testing.T) {
	s := New()
	for i := 1; i <= 20; i++ {
		feed(t, s, int64(i), fmt.Sprintf("k%d", i%5), "v", databus.OpUpsert)
	}
	s.ApplyOnce()

	// Recent client: delta path (few events, collapsed).
	n := 0
	resume, err := s.Catchup(15, nil, func(databus.Event) error { n++; return nil })
	if err != nil || resume != 20 {
		t.Fatalf("Catchup(15) = (%d, %v)", resume, err)
	}
	if n == 0 || n > 5 {
		t.Fatalf("delta path delivered %d events", n)
	}

	// Ancient client after trim: snapshot path.
	s.TrimLog(18)
	n = 0
	resume, err = s.Catchup(2, nil, func(databus.Event) error { n++; return nil })
	if err != nil || resume != 20 {
		t.Fatalf("Catchup(2) = (%d, %v)", resume, err)
	}
	if n < 5 {
		t.Fatalf("snapshot path delivered %d events", n)
	}
}

func TestFilterPushdown(t *testing.T) {
	s := New()
	for i := 1; i <= 20; i++ {
		e := databus.Event{SCN: int64(i), TxnID: int64(i), EndOfTxn: true,
			Source: "s", Key: []byte(fmt.Sprintf("k%d", i)), Payload: []byte("v")}
		e.ComputePartition(4)
		if err := s.OnEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	s.ApplyOnce()
	f := &databus.Filter{Partitions: []int{1}}
	events, _, err := s.ConsolidatedDelta(0, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Partition != 1 {
			t.Fatalf("filter leaked partition %d", e.Partition)
		}
	}
	var snapCount int
	if _, err := s.Snapshot(f, func(e databus.Event) error {
		if e.Partition != 1 {
			t.Fatalf("snapshot filter leaked partition %d", e.Partition)
		}
		snapCount++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if snapCount != len(events) {
		t.Fatalf("snapshot filtered %d vs delta %d", snapCount, len(events))
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	s := New()
	feed(t, s, 5, "k", "v", databus.OpUpsert)
	err := s.OnEvent(databus.Event{SCN: 3, Source: "s", Key: []byte("k")})
	if err == nil {
		t.Fatal("out-of-order event accepted")
	}
}

func BenchmarkConsolidatedDelta(b *testing.B) {
	s := New()
	// 100k updates to 1k keys: delta returns 1k rows instead of 100k events.
	for i := 1; i <= 100000; i++ {
		s.OnEvent(databus.Event{
			SCN: int64(i), TxnID: int64(i), EndOfTxn: true, Source: "s",
			Key: []byte(fmt.Sprintf("k%d", i%1000)), Payload: []byte("payload-bytes"),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events, _, err := s.ConsolidatedDelta(0, nil)
		if err != nil || len(events) != 1000 {
			b.Fatalf("(%d, %v)", len(events), err)
		}
	}
}
