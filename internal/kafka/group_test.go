package kafka

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"datainfra/internal/zk"
)

// groupRig boots n brokers (in-process) plus a zk server.
func groupRig(t testing.TB, brokers, partitions int) (*zk.Server, map[int]BrokerClient, []*Broker) {
	t.Helper()
	srv := zk.NewServer()
	clients := map[int]BrokerClient{}
	var raw []*Broker
	for i := 0; i < brokers; i++ {
		b, err := NewBroker(i, t.TempDir(), BrokerConfig{PartitionsPerTopic: partitions})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		clients[i] = b
		raw = append(raw, b)
	}
	return srv, clients, raw
}

func waitCond(t testing.TB, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGroupSingleConsumerGetsEverything(t *testing.T) {
	srv, clients, raw := groupRig(t, 2, 2)
	for _, b := range raw {
		for p := 0; p < 2; p++ {
			b.Produce("t", p, NewMessageSet([]byte(fmt.Sprintf("pre-%d-%d", b.ID(), p))))
		}
	}
	g, err := NewGroupConsumer(srv, "g1", "c1", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	seen := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for len(seen) < 4 {
		select {
		case m := <-g.Messages():
			seen[string(m.Payload)] = true
		case <-deadline:
			t.Fatalf("consumed %d/4 messages: %v", len(seen), seen)
		}
	}
	// single consumer owns every partition
	if got := len(g.Owned("t")); got != 4 {
		t.Fatalf("owned %d partitions, want 4", got)
	}
}

func TestGroupPartitionsDisjointlyCovered(t *testing.T) {
	srv, clients, _ := groupRig(t, 2, 4) // 8 partitions total
	var gs []*GroupConsumer
	for i := 0; i < 3; i++ {
		g, err := NewGroupConsumer(srv, "g2", fmt.Sprintf("c%d", i), []string{"t"}, clients, GroupConfig{FromEarliest: true})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		gs = append(gs, g)
	}
	// The first member can own all 8 before the later ones join, so the
	// group has settled only once every member holds its share.
	waitCond(t, "ownership to settle", 5*time.Second, func() bool {
		total := 0
		for _, g := range gs {
			n := len(g.Owned("t"))
			if n < 2 || n > 3 {
				return false
			}
			total += n
		}
		return total == 8
	})
	// disjoint cover
	owner := map[PartitionID]string{}
	for i, g := range gs {
		for _, p := range g.Owned("t") {
			if prev, dup := owner[p]; dup {
				t.Fatalf("partition %v owned by both %s and c%d", p, prev, i)
			}
			owner[p] = fmt.Sprintf("c%d", i)
		}
	}
	if len(owner) != 8 {
		t.Fatalf("cover = %d/8", len(owner))
	}
	// roughly even: 8 partitions over 3 consumers -> 3/3/2
	for _, g := range gs {
		n := len(g.Owned("t"))
		if n < 2 || n > 3 {
			t.Fatalf("consumer owns %d partitions", n)
		}
	}
}

func TestGroupRebalanceOnMemberDeath(t *testing.T) {
	srv, clients, _ := groupRig(t, 1, 4)
	g1, err := NewGroupConsumer(srv, "g3", "c1", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	g2, err := NewGroupConsumer(srv, "g3", "c2", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "both members owning", 5*time.Second, func() bool {
		return len(g1.Owned("t")) == 2 && len(g2.Owned("t")) == 2
	})
	g2.Close() // ephemeral vanishes, g1 must absorb everything
	waitCond(t, "survivor owning all", 5*time.Second, func() bool {
		return len(g1.Owned("t")) == 4
	})
}

func TestGroupPointToPointNoDuplicates(t *testing.T) {
	srv, clients, raw := groupRig(t, 1, 4)
	const total = 200
	// two members of ONE group jointly consume a single copy (§V.A)
	var mu sync.Mutex
	seen := map[string]int{}
	consume := func(g *GroupConsumer) {
		for m := range g.Messages() {
			mu.Lock()
			seen[string(m.Payload)]++
			mu.Unlock()
		}
	}
	g1, _ := NewGroupConsumer(srv, "p2p", "a", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	g2, _ := NewGroupConsumer(srv, "p2p", "b", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	defer g1.Close()
	defer g2.Close()
	go consume(g1)
	go consume(g2)
	waitCond(t, "ownership split", 5*time.Second, func() bool {
		return len(g1.Owned("t"))+len(g2.Owned("t")) == 4
	})
	p := NewProducer(raw[0], ProducerConfig{BatchSize: 10})
	defer p.Close()
	for i := 0; i < total; i++ {
		p.Send("t", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("msg-%d", i)))
	}
	p.Flush()
	waitCond(t, "all messages consumed once", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == total
	})
	mu.Lock()
	defer mu.Unlock()
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("message %s delivered %d times within one group", k, n)
		}
	}
}

func TestGroupPubSubIndependentCopies(t *testing.T) {
	srv, clients, raw := groupRig(t, 1, 2)
	const total = 50
	counts := make([]int, 2)
	var mu sync.Mutex
	for gi := 0; gi < 2; gi++ {
		g, err := NewGroupConsumer(srv, fmt.Sprintf("grp-%d", gi), "only", []string{"t"}, clients, GroupConfig{FromEarliest: true})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		go func(gi int, g *GroupConsumer) {
			for range g.Messages() {
				mu.Lock()
				counts[gi]++
				mu.Unlock()
			}
		}(gi, g)
	}
	p := NewProducer(raw[0], ProducerConfig{BatchSize: 5})
	defer p.Close()
	for i := 0; i < total; i++ {
		p.Send("t", nil, []byte(fmt.Sprintf("m%d", i)))
	}
	p.Flush()
	waitCond(t, "both groups receiving full copies", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return counts[0] == total && counts[1] == total
	})
}

func TestGroupOffsetsSurviveRestart(t *testing.T) {
	srv, clients, raw := groupRig(t, 1, 1)
	p := NewProducer(raw[0], ProducerConfig{BatchSize: 1})
	defer p.Close()
	for i := 0; i < 10; i++ {
		p.SendTo("t", 0, []byte(fmt.Sprintf("first-%d", i)))
	}
	g, _ := NewGroupConsumer(srv, "persist", "c", []string{"t"}, clients, GroupConfig{FromEarliest: true, CommitInterval: 5 * time.Millisecond})
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 10 {
		select {
		case <-g.Messages():
			got++
		case <-deadline:
			t.Fatalf("first run consumed %d/10", got)
		}
	}
	// allow an offset commit, then stop the consumer
	time.Sleep(50 * time.Millisecond)
	g.Close()

	for i := 0; i < 5; i++ {
		p.SendTo("t", 0, []byte(fmt.Sprintf("second-%d", i)))
	}
	g2, _ := NewGroupConsumer(srv, "persist", "c", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	defer g2.Close()
	var second []string
	deadline = time.After(5 * time.Second)
	for len(second) < 5 {
		select {
		case m := <-g2.Messages():
			second = append(second, string(m.Payload))
		case <-deadline:
			t.Fatalf("second run consumed %d/5: %v", len(second), second)
		}
	}
	for _, s := range second {
		if len(s) < 6 || s[:6] != "second" {
			t.Fatalf("restart re-delivered committed message %q", s)
		}
	}
}

func TestAuditPipelineVerifiesNoLoss(t *testing.T) {
	srv, clients, raw := groupRig(t, 1, 2)
	_ = srv
	b := raw[0]
	emitter := NewAuditEmitter("producer-1", b, 50*time.Millisecond)
	p := NewProducer(b, ProducerConfig{BatchSize: 10})
	p.EnableAudit(emitter)
	const total = 120
	for i := 0; i < total; i++ {
		p.Send("tracked", []byte(fmt.Sprintf("k%d", i)), []byte("payload"))
	}
	p.Flush()
	p.Close()
	emitter.Close()

	auditor := NewAuditor()
	sc := NewSimpleConsumer(clients[0], 1<<20)
	for part := 0; part < 2; part++ {
		off := int64(0)
		for {
			msgs, err := sc.Consume("tracked", part, off)
			if err != nil || len(msgs) == 0 {
				break
			}
			for range msgs {
				auditor.Observe("tracked")
			}
			off = msgs[len(msgs)-1].NextOffset
		}
	}
	claimed, ok, err := auditor.Verify(clients[0])
	if err != nil {
		t.Fatal(err)
	}
	if claimed["tracked"] != total {
		t.Fatalf("audit claims %d, produced %d", claimed["tracked"], total)
	}
	if !ok {
		t.Fatalf("audit mismatch: claimed %v, received %d", claimed, auditor.Received("tracked"))
	}
}

func TestMirrorReplicatesToOfflineCluster(t *testing.T) {
	_, _, raw := groupRig(t, 2, 2)
	live, offline := raw[0], raw[1]
	p := NewProducer(live, ProducerConfig{BatchSize: 5})
	const total = 60
	for i := 0; i < total; i++ {
		p.Send("activity", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("ev-%d", i)))
	}
	p.Flush()
	p.Close()

	m := NewMirror(live, offline, "activity")
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitCond(t, "mirror catch-up", 10*time.Second, func() bool { return m.Copied() == total })

	// offline cluster serves the full copy
	sc := NewSimpleConsumer(offline, 1<<20)
	got := 0
	for part := 0; part < 2; part++ {
		off := int64(0)
		for {
			msgs, err := sc.Consume("activity", part, off)
			if err != nil || len(msgs) == 0 {
				break
			}
			got += len(msgs)
			off = msgs[len(msgs)-1].NextOffset
		}
	}
	if got != total {
		t.Fatalf("offline cluster has %d/%d messages", got, total)
	}
}

// An idle group keeps one child watch per member armed on its ids dir,
// however many 200 ms re-checks the coordinator makes, and a joining member
// still rebalances it.
func TestGroupIdleCoordinatorKeepsOneWatch(t *testing.T) {
	srv, clients, _ := groupRig(t, 1, 4)
	g1, err := NewGroupConsumer(srv, "g-idle", "c1", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	waitCond(t, "first owner", 5*time.Second, func() bool { return len(g1.Owned("t")) == 4 })
	idsDir := "/consumers/g-idle/ids"
	time.Sleep(20*200*time.Millisecond + 100*time.Millisecond) // 20 idle ticks
	if _, n, _ := srv.PendingWatches(idsDir); n != 1 {
		t.Fatalf("child watches on %s after 20 idle ticks = %d, want 1", idsDir, n)
	}

	before := g1.Rebalances()
	g2, err := NewGroupConsumer(srv, "g-idle", "c2", []string{"t"}, clients, GroupConfig{FromEarliest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	waitCond(t, "rebalance on join", 5*time.Second, func() bool {
		return g1.Rebalances() > before && len(g1.Owned("t")) == 2 && len(g2.Owned("t")) == 2
	})
	// The join fired c1's watch; both members have one armed again.
	waitCond(t, "watches re-armed", 5*time.Second, func() bool {
		_, n, _ := srv.PendingWatches(idsDir)
		return n == 2
	})
	time.Sleep(5 * 200 * time.Millisecond)
	if _, n, _ := srv.PendingWatches(idsDir); n != 2 {
		t.Fatalf("child watches after 5 more idle ticks = %d, want 2 (one per member)", n)
	}
}
