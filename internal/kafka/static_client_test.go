package kafka

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// staticClientRig: an ISR-replicated cluster with every broker listening on
// a real TCP port, plus a StaticClient over the full address list — the
// deployment shape of cmd/kafka-broker -replicas N with an external client.
type staticClientRig struct {
	c     *ReplicatedCluster
	sc    *StaticClient
	addrs []string // addrs[i] serves broker-i
}

func newStaticClientRig(t *testing.T, replicas int) *staticClientRig {
	t.Helper()
	dirs := make([]string, replicas)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	c, err := NewReplicatedCluster(dirs,
		BrokerConfig{PartitionsPerTopic: 1, Log: LogConfig{FlushMessages: 1}},
		ReplicatedConfig{Cluster: "sc-test", Replicas: replicas, MinISR: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	rig := &staticClientRig{c: c}
	for i, rb := range c.Brokers() {
		addr, err := rb.Broker().Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		_ = i
		rig.addrs = append(rig.addrs, addr)
	}
	if err := c.AddTopic("events"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("events", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rig.sc = NewStaticClient(rig.addrs, time.Second)
	t.Cleanup(rig.sc.Close)
	return rig
}

// leaderIndex resolves the current leader's position in the client's broker
// list (instance names are "broker-<i>" and addrs[i] serves broker-i).
func (rig *staticClientRig) leaderIndex(t *testing.T) int {
	t.Helper()
	leader, err := rig.c.LeaderOf("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	var idx int
	if _, err := fmt.Sscanf(leader, "broker-%d", &idx); err != nil {
		t.Fatalf("unexpected leader instance %q: %v", leader, err)
	}
	return idx
}

// cachedLeader reads the client's leader cache for events/0.
func (rig *staticClientRig) cachedLeader() (int, bool) {
	rig.sc.mu.Lock()
	defer rig.sc.mu.Unlock()
	i, ok := rig.sc.leader[topicPartition{"events", 0}]
	return i, ok
}

// TestStaticClientLeaderCacheWalk: the first produce discovers the leader by
// walking the broker list past ErrNotLeader answers and remembers it; after
// the leader is killed the cached entry is invalidated and the walk
// converges on the promoted replica — while every acked produce stays
// readable at its offset.
func TestStaticClientLeaderCacheWalk(t *testing.T) {
	rig := newStaticClientRig(t, 3)

	if _, ok := rig.cachedLeader(); ok {
		t.Fatal("leader cache populated before any request")
	}
	off0, err := rig.sc.Produce("events", 0, NewMessageSet([]byte("m0")))
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := rig.cachedLeader()
	if !ok {
		t.Fatal("leader cache empty after a successful produce")
	}
	if want := rig.leaderIndex(t); cached != want {
		t.Fatalf("cached leader %d, zk says %d", cached, want)
	}

	// Kill the leader out from under the cache.
	leader, _ := rig.c.LeaderOf("events", 0)
	rig.c.Kill(leader)
	off1, err := rig.sc.Produce("events", 0, NewMessageSet([]byte("m1")))
	if err != nil {
		t.Fatalf("produce across failover: %v", err)
	}
	if off1 <= off0 {
		t.Fatalf("offset went backwards across failover: %d then %d", off0, off1)
	}
	cached, ok = rig.cachedLeader()
	if !ok {
		t.Fatal("leader cache empty after failover produce")
	}
	if want := rig.leaderIndex(t); cached != want {
		t.Fatalf("cached leader %d after failover, zk says %d", cached, want)
	}

	// Both acked messages must be served by the promoted leader.
	assertLogContains(t, rig.sc, map[int64]string{off0: "m0", off1: "m1"})
}

// TestStaticClientConcurrentFailover: many goroutines share one StaticClient
// while the partition leader is killed mid-stream. Every acknowledged
// produce must keep its offset (unique, stable, re-readable) and the shared
// leader cache must converge — concurrent invalidate/remember races may
// never wedge the client.
func TestStaticClientConcurrentFailover(t *testing.T) {
	rig := newStaticClientRig(t, 3)

	const (
		producers   = 8
		perProducer = 30
	)
	type ack struct {
		offset  int64
		payload string
	}
	var (
		mu     sync.Mutex
		acked  []ack
		wedged []string
		wg     sync.WaitGroup
	)
	killAt := make(chan struct{})
	var killOnce sync.Once
	// How long the election window lasts depends on how busy the host is,
	// so each producer reissues a rejected produce rather than skipping it;
	// a client that never acks again within the deadline is wedged.
	deadline := time.Now().Add(20 * time.Second)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if p == 0 && i == perProducer/3 {
					killOnce.Do(func() { close(killAt) })
				}
				payload := fmt.Sprintf("p%d-%d", p, i)
				for {
					off, err := rig.sc.Produce("events", 0, NewMessageSet([]byte(payload)))
					if err == nil {
						mu.Lock()
						acked = append(acked, ack{off, payload})
						mu.Unlock()
						break
					}
					// A produce rejected during the election window is
					// allowed; an acked one is the contract under test.
					if time.Now().After(deadline) {
						mu.Lock()
						wedged = append(wedged, fmt.Sprintf("%s: %v", payload, err))
						mu.Unlock()
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(p)
	}
	go func() {
		<-killAt
		leader, err := rig.c.LeaderOf("events", 0)
		if err == nil {
			rig.c.Kill(leader)
		}
	}()
	wg.Wait()

	if len(wedged) > 0 {
		t.Fatalf("client wedged across one failover: %d/%d produces acked; still rejected at the deadline: %v",
			len(acked), producers*perProducer, wedged)
	}
	seen := map[int64]string{}
	for _, a := range acked {
		if prev, dup := seen[a.offset]; dup {
			t.Fatalf("offset %d acked twice: %q and %q", a.offset, prev, a.payload)
		}
		seen[a.offset] = a.payload
	}
	if cached, ok := rig.cachedLeader(); !ok {
		t.Fatal("leader cache empty after the run")
	} else if want := rig.leaderIndex(t); cached != want {
		t.Fatalf("cached leader %d after failover, zk says %d", cached, want)
	}
	assertLogContains(t, rig.sc, seen)
}

// assertLogContains drains events/0 and checks that every acked offset holds
// exactly its acked payload.
func assertLogContains(t *testing.T, sc *StaticClient, want map[int64]string) {
	t.Helper()
	earliest, latest, err := sc.Offsets("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	offset := earliest
	for offset < latest {
		chunk, err := sc.Fetch("events", 0, offset, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := Decode(chunk, offset)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			t.Fatalf("empty fetch at offset %d (log end %d)", offset, latest)
		}
		for _, m := range msgs {
			got[offset] = string(m.Payload)
			offset = m.NextOffset
		}
	}
	for off, payload := range want {
		if got[off] != payload {
			t.Fatalf("offset %d: log holds %q, acked %q", off, got[off], payload)
		}
	}
}
