package kafka

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datainfra/internal/helix"
	"datainfra/internal/zk"
)

func TestLogVisibilityLimit(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var sets []MessageSet
	var offs []int64
	for i := 0; i < 3; i++ {
		set := NewMessageSet([]byte(fmt.Sprintf("msg-%d", i)))
		off, err := l.Append(set)
		if err != nil {
			t.Fatal(err)
		}
		sets, offs = append(sets, set), append(offs, off)
	}
	end := l.FlushedEnd()

	// Cap visibility at the second message's start.
	l.SetLimit(offs[1])
	if got := l.Latest(); got != offs[1] {
		t.Fatalf("Latest = %d, want limit %d", got, offs[1])
	}
	chunk, err := l.Read(offs[0], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(chunk)) != offs[1]-offs[0] {
		t.Fatalf("capped read returned %d bytes, want %d", len(chunk), offs[1]-offs[0])
	}
	if _, err := l.Read(offs[1]+1, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("read past limit: err = %v, want ErrOffsetOutOfRange", err)
	}
	// The replica path sees everything durable.
	raw, err := l.ReadUncapped(offs[0], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != end-offs[0] {
		t.Fatalf("uncapped read returned %d bytes, want %d", len(raw), end-offs[0])
	}
	// Raising the limit past the end exposes everything.
	l.SetLimit(end + 100)
	if got := l.Latest(); got != end {
		t.Fatalf("Latest = %d, want flushed end %d", got, end)
	}
	l.SetLimit(-1)
	if got := l.Latest(); got != end {
		t.Fatalf("Latest with cap removed = %d, want %d", got, end)
	}
}

func TestLogAppendAtAndTruncate(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	leader, err := OpenLog(dirA, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := OpenLog(dirB, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for i := 0; i < 5; i++ {
		if _, err := leader.Append(NewMessageSet([]byte(fmt.Sprintf("payload-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := leader.ReadUncapped(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Replay in two chunks at exact offsets.
	half := int64(validPrefix(raw[:len(raw)/2]))
	if err := follower.AppendAt(0, raw[:half]); err != nil {
		t.Fatal(err)
	}
	if err := follower.AppendAt(half, raw[half:]); err != nil {
		t.Fatal(err)
	}
	if err := follower.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := follower.ReadUncapped(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, got) {
		t.Fatal("follower log is not byte-identical after AppendAt replay")
	}
	// Non-contiguous appends are rejected.
	if err := follower.AppendAt(half, raw[half:]); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("non-contiguous AppendAt: err = %v, want ErrOffsetOutOfRange", err)
	}
	// Truncate back to half and re-replay the tail.
	if err := follower.TruncateTo(half); err != nil {
		t.Fatal(err)
	}
	if end := follower.FlushedEnd(); end != half {
		t.Fatalf("FlushedEnd after truncate = %d, want %d", end, half)
	}
	if err := follower.AppendAt(half, raw[half:]); err != nil {
		t.Fatal(err)
	}
	if err := follower.TruncateTo(int64(len(raw)) + 50); err != nil {
		t.Fatalf("truncate past end must be a no-op, got %v", err)
	}
	if err := follower.TruncateTo(-1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("truncate below earliest: err = %v, want ErrOffsetOutOfRange", err)
	}
}

func TestLogLimitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for i := 0; i < 3; i++ {
		off, err := l.Append(NewMessageSet([]byte(fmt.Sprintf("msg-%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// The high watermark covers the first two messages; the third is an
	// unacked tail.
	l.SetLimit(offs[2])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Latest(); got != offs[2] {
		t.Fatalf("Latest after restart = %d, want restored limit %d", got, offs[2])
	}
	// The divergence truncate a replica runs on (re)joining now has a real
	// watermark to cut to: the unacked tail does not survive the restart.
	if err := re.TruncateTo(re.Latest()); err != nil {
		t.Fatal(err)
	}
	if got := re.FlushedEnd(); got != offs[2] {
		t.Fatalf("FlushedEnd after restart truncate = %d, want %d (unacked tail must be cut)", got, offs[2])
	}
	// Removing the cap removes the checkpoint.
	re.SetLimit(-1)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if got := third.Latest(); got != offs[2] {
		t.Fatalf("Latest with checkpoint removed = %d, want flushed end %d", got, offs[2])
	}
}

func TestParseStatusMapsReplicationErrors(t *testing.T) {
	cases := []struct {
		msg  string
		want error
	}{
		{"kafka: offset out of range: offset 9", ErrOffsetOutOfRange},
		{"kafka: not the partition leader: t/0", ErrNotLeader},
		{"kafka: not enough in-sync replicas: t/0 has 1, need 2", ErrNotEnoughReplicas},
		{"kafka: timed out waiting for replica acks: t/0 offset 4", ErrAckTimeout},
		{"kafka: no leader elected: t/0", errNoLeader},
	}
	for _, c := range cases {
		frame := append([]byte{1}, c.msg...)
		if _, err := parseStatus(frame); !errors.Is(err, c.want) {
			t.Fatalf("parseStatus(%q) = %v, want %v", c.msg, err, c.want)
		}
	}
	if _, err := parseStatus(append([]byte{1}, "something else"...)); err == nil {
		t.Fatal("unknown error frame must still surface an error")
	}
}

func newTestCluster(t *testing.T, brokers int, cfg ReplicatedConfig) *ReplicatedCluster {
	t.Helper()
	dirs := make([]string, brokers)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("broker-%d", i))
	}
	c, err := NewReplicatedCluster(dirs, BrokerConfig{PartitionsPerTopic: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestReplicatedProduceConsumeAndByteIdenticalLogs(t *testing.T) {
	c := newTestCluster(t, 3, ReplicatedConfig{
		Cluster: "t1", Replicas: 3, MinISR: 2,
		FetchWait: 20 * time.Millisecond, AckTimeout: 5 * time.Second,
	})
	if err := c.AddTopic("events"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("events", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	client := c.Client()
	defer client.Close()

	n, err := client.Partitions("events")
	if err != nil || n != 2 {
		t.Fatalf("Partitions = %d, %v; want 2", n, err)
	}
	var offsets []int64
	var payloads [][]byte
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("event-%03d", i))
		off, err := client.Produce("events", 0, NewMessageSet(payload))
		if err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		offsets, payloads = append(offsets, off), append(payloads, payload)
	}

	// Consume everything back through the routed client.
	consumer := NewSimpleConsumer(client, 1<<20)
	msgs, err := consumer.Consume("events", 0, offsets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != len(payloads) {
		t.Fatalf("consumed %d messages, want %d", len(msgs), len(payloads))
	}
	for i, m := range msgs {
		if !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d: payload %q, want %q", i, m.Payload, payloads[i])
		}
		if i+1 < len(offsets) && m.NextOffset != offsets[i+1] {
			t.Fatalf("message %d: next offset %d, want %d", i, m.NextOffset, offsets[i+1])
		}
	}

	// Every replica's log must be byte-identical over the acked range —
	// a follower Fetch at a leader-issued offset returns the same bytes.
	leader, err := c.LeaderOf("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := c.Broker(leader).Broker().log("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ll.Read(offsets[0], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, rb := range c.Brokers() {
		if rb.Instance() == leader {
			continue
		}
		waitCond(t, "follower catch-up", 5*time.Second, func() bool {
			fl, err := rb.Broker().log("events", 0)
			if err != nil {
				return false
			}
			return fl.FlushedEnd() >= ll.FlushedEnd()
		})
		fl, err := rb.Broker().log("events", 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fl.ReadUncapped(offsets[0], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("follower %s log differs from leader over acked range", rb.Instance())
		}
		checked++
	}
	if checked != 2 {
		t.Fatalf("checked %d followers, want 2", checked)
	}
}

func TestReplicatedFailoverPreservesConsumerOffset(t *testing.T) {
	c := newTestCluster(t, 3, ReplicatedConfig{
		Cluster: "t2", Replicas: 3, MinISR: 2,
		FetchWait: 20 * time.Millisecond, LagTimeout: 300 * time.Millisecond,
	})
	if err := c.AddTopic("orders"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("orders", 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	client := c.Client()
	defer client.Close()

	var offsets []int64
	var payloads [][]byte
	for i := 0; i < 10; i++ {
		payload := []byte(fmt.Sprintf("order-%03d", i))
		off, err := client.Produce("orders", 1, NewMessageSet(payload))
		if err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		offsets, payloads = append(offsets, off), append(payloads, payload)
	}

	// A consumer reads half the stream and saves its offset.
	consumer := NewSimpleConsumer(client, 1<<20)
	msgs, err := consumer.Consume("orders", 1, offsets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 {
		t.Fatalf("consumed %d, want 10", len(msgs))
	}
	saved := msgs[4].NextOffset // consumed through message 4

	// Kill the leader mid-stream.
	leader, err := c.LeaderOf("orders", 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Kill(leader)
	waitCond(t, "new leader", 10*time.Second, func() bool {
		l, err := c.LeaderOf("orders", 1)
		return err == nil && l != leader
	})

	// Resuming at the saved offset yields exactly messages 5..9 with
	// unchanged offsets: physical offsets survived the failover.
	waitCond(t, "resumed consumption", 10*time.Second, func() bool {
		rest, err := consumer.Consume("orders", 1, saved)
		return err == nil && len(rest) == 5
	})
	rest, err := consumer.Consume("orders", 1, saved)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range rest {
		if !bytes.Equal(m.Payload, payloads[5+i]) {
			t.Fatalf("post-failover message %d: payload %q, want %q", i, m.Payload, payloads[5+i])
		}
		if 6+i < len(offsets) && m.NextOffset != offsets[6+i] {
			t.Fatalf("post-failover message %d: next offset %d, want %d (offsets must survive failover)", i, m.NextOffset, offsets[6+i])
		}
	}
}

func TestProduceRejectedBelowMinISR(t *testing.T) {
	// Two brokers, MinISR 2: killing one must block produces instead of
	// accepting writes a single failure could lose.
	c := newTestCluster(t, 2, ReplicatedConfig{
		Cluster: "t3", Replicas: 2, MinISR: 2,
		FetchWait: 20 * time.Millisecond, LagTimeout: 200 * time.Millisecond,
	})
	if err := c.AddTopic("audit"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("audit", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, err := c.LeaderOf("audit", 0)
	if err != nil {
		t.Fatal(err)
	}
	var follower string
	for _, rb := range c.Brokers() {
		if rb.Instance() != leader {
			follower = rb.Instance()
		}
	}
	c.Kill(follower)
	waitCond(t, "ISR shrink", 5*time.Second, func() bool {
		return len(c.ISROf("audit", 0)) < 2
	})
	_, err = c.Broker(leader).Produce("audit", 0, NewMessageSet([]byte("x")))
	if !errors.Is(err, ErrNotEnoughReplicas) {
		t.Fatalf("produce with shrunken ISR: err = %v, want ErrNotEnoughReplicas", err)
	}
}

func TestProduceToFollowerReturnsNotLeader(t *testing.T) {
	c := newTestCluster(t, 2, ReplicatedConfig{
		Cluster: "t4", Replicas: 2, MinISR: 1, FetchWait: 20 * time.Millisecond,
	})
	if err := c.AddTopic("logs"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("logs", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, err := c.LeaderOf("logs", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range c.Brokers() {
		if rb.Instance() == leader {
			continue
		}
		if rb.Role("logs", 0) != helix.StateStandby {
			t.Fatalf("%s role = %s, want STANDBY", rb.Instance(), rb.Role("logs", 0))
		}
		_, err := rb.Produce("logs", 0, NewMessageSet([]byte("x")))
		if !errors.Is(err, ErrNotLeader) {
			t.Fatalf("produce to follower: err = %v, want ErrNotLeader", err)
		}
	}
}

func TestReplicaFetchEpochFencing(t *testing.T) {
	c := newTestCluster(t, 2, ReplicatedConfig{
		Cluster: "t5", Replicas: 2, MinISR: 1, FetchWait: 20 * time.Millisecond,
	})
	if err := c.AddTopic("fence"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("fence", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, err := c.LeaderOf("fence", 0)
	if err != nil {
		t.Fatal(err)
	}
	rb := c.Broker(leader)
	data, _, err := c.sess.Get(isrPath("t5", "fence", 0))
	if err != nil {
		t.Fatal(err)
	}
	var rec isrRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}

	// A fetch under an older epoch is fenced, and must not depose the leader.
	if _, _, err := rb.ReplicaFetch("fence", 0, 0, 1<<20, 0, "broker-stale", rec.Epoch-1); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("stale-epoch replica fetch: err = %v, want ErrNotLeader", err)
	}
	if _, err := rb.Produce("fence", 0, NewMessageSet([]byte("still-leading"))); err != nil {
		t.Fatalf("produce after stale-epoch fetch: %v", err)
	}

	// A fetch under a newer epoch proves a newer election: fenced, and the
	// stale leader deposes itself so produce waiters fail fast.
	if _, _, err := rb.ReplicaFetch("fence", 0, 0, 1<<20, 0, "broker-new", rec.Epoch+1); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("newer-epoch replica fetch: err = %v, want ErrNotLeader", err)
	}
	if _, err := rb.Produce("fence", 0, NewMessageSet([]byte("deposed"))); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("produce on deposed leader: err = %v, want ErrNotLeader", err)
	}
}

// scriptedPeer serves ReplicaFetch straight from a local Log, standing in for
// a leader broker so followerLoop can be driven deterministically.
type scriptedPeer struct {
	l     *Log
	hw    int64
	epoch int
}

func (p *scriptedPeer) ReplicaFetch(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (int64, []byte, error) {
	if epoch != p.epoch {
		return 0, nil, fmt.Errorf("%w: fetch epoch %d, leader epoch %d", ErrNotLeader, epoch, p.epoch)
	}
	chunk, err := p.l.ReadUncapped(offset, maxBytes)
	if err != nil {
		return 0, nil, err
	}
	return p.hw, chunk, nil
}

// TestFollowerTruncatesUnackedTailOnEpochChange is the deterministic
// divergence regression: under epoch 1 the follower replicates the leader's
// log past the high watermark (an unacked tail); the epoch-2 leader's log has
// a *different* same-length tail at those offsets, already extended by new
// produces. A follower that merely swaps peers on the leader change fetches
// at its stale end, gets message-boundary-aligned bytes that parse cleanly,
// and corrupts silently below the future watermark. The fix: on an epoch
// bump, truncate to the local high watermark before the first fetch.
func TestFollowerTruncatesUnackedTailOnEpochChange(t *testing.T) {
	srv := zk.NewServer()
	sess := srv.NewSession()
	defer sess.Close()
	// The controller only sets up the cluster tree; it is never started, so
	// this test — not an election — decides epochs and leaders.
	ctrl, err := helix.NewController(srv, "t7")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	mkLog := func(msgs ...string) *Log {
		t.Helper()
		l, err := OpenLog(t.TempDir(), LogConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for _, m := range msgs {
			if _, err := l.Append(NewMessageSet([]byte(m))); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	acked := []string{"acked-000", "acked-001", "acked-002"}
	// Epoch-1 leader: acked messages plus a tail it never acked.
	ackedOnly := mkLog(acked...)
	hw := ackedOnly.FlushedEnd()
	l1 := mkLog(append(append([]string{}, acked...), "unacked-old-tail")...)
	// Epoch-2 leader: same acked prefix, a different same-length tail (its
	// own unacked inheritance, now committed), plus post-failover produces.
	l2 := mkLog(append(append([]string{}, acked...), "unacked-new-tail", "post-failover-000")...)

	var mu sync.Mutex
	peers := map[string]*scriptedPeer{
		"alpha": {l: l1, hw: hw, epoch: 1},
	}
	resolve := func(instance string) (ReplicaPeer, error) {
		mu.Lock()
		defer mu.Unlock()
		p, ok := peers[instance]
		if !ok {
			return nil, fmt.Errorf("kafka: unknown broker %q", instance)
		}
		return p, nil
	}

	b, err := NewBroker(0, t.TempDir(), BrokerConfig{PartitionsPerTopic: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplicatedConfig{Cluster: "t7", FetchWait: 5 * time.Millisecond}
	rb, err := NewReplicatedBroker(b, srv, cfg, resolve)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	publish := func(rec isrRecord) {
		t.Helper()
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := isrPath("t7", "events", 0)
		if _, stat, err := sess.Get(p); err == nil {
			if _, err := sess.Set(p, data, stat.Version); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := sess.CreateAll(p, data); err != nil {
			t.Fatal(err)
		}
	}
	publish(isrRecord{Epoch: 1, Leader: "alpha", ISR: []string{"alpha", rb.Instance()}})

	// Start following (the transition the Helix controller would issue).
	if err := rb.apply(helix.Transition{
		Resource: "events", Partition: 0,
		From: helix.StateOffline, To: helix.StateStandby,
	}); err != nil {
		t.Fatal(err)
	}
	fl, err := rb.Broker().log("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := l1.ReadUncapped(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "epoch-1 replication incl. unacked tail", 5*time.Second, func() bool {
		got, err := fl.ReadUncapped(0, 1<<20)
		return err == nil && bytes.Equal(want1, got)
	})
	if got := fl.Latest(); got != hw {
		t.Fatalf("follower visible end = %d, want high watermark %d", got, hw)
	}

	// Failover: epoch 2, new leader, log already longer than the follower's
	// stale end and boundary-aligned with it.
	mu.Lock()
	peers["beta"] = &scriptedPeer{l: l2, hw: l2.FlushedEnd(), epoch: 2}
	mu.Unlock()
	publish(isrRecord{Epoch: 2, Leader: "beta", ISR: []string{"beta", rb.Instance()}})

	want2, err := l2.ReadUncapped(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "epoch-2 convergence", 5*time.Second, func() bool {
		got, err := fl.ReadUncapped(0, 1<<20)
		return err == nil && bytes.Equal(want2, got)
	})
}

// epochPeer is a scripted leader that records the epochs it is fetched under.
type epochPeer struct {
	scriptedPeer
	mu     sync.Mutex
	epochs map[int]int
}

func (p *epochPeer) ReplicaFetch(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (int64, []byte, error) {
	p.mu.Lock()
	p.epochs[epoch]++
	p.mu.Unlock()
	return p.scriptedPeer.ReplicaFetch(topic, partition, offset, maxBytes, wait, follower, epoch)
}

func (p *epochPeer) fetchesAt(epoch int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochs[epoch]
}

// TestFollowerSeesEpochBumpUnderSameLeader: the ISR record is rewritten with
// the same leader and a new epoch (a leader that re-won its own election).
// The follower reads the record through a memo keyed on the znode's Mzxid,
// so it must still notice the rewrite and fetch under the new epoch — the
// old-epoch peer here keeps answering, so only a re-read can move it on.
func TestFollowerSeesEpochBumpUnderSameLeader(t *testing.T) {
	srv := zk.NewServer()
	sess := srv.NewSession()
	defer sess.Close()
	ctrl, err := helix.NewController(srv, "t8") // cluster tree only; never started
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	mkLog := func(msgs ...string) *Log {
		t.Helper()
		l, err := OpenLog(t.TempDir(), LogConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for _, m := range msgs {
			if _, err := l.Append(NewMessageSet([]byte(m))); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	l1 := mkLog("m-000", "m-001")
	l2 := mkLog("m-000", "m-001", "m-002-epoch-2")
	old := &epochPeer{scriptedPeer: scriptedPeer{l: l1, hw: l1.FlushedEnd(), epoch: 1}, epochs: map[int]int{}}
	bumped := &epochPeer{scriptedPeer: scriptedPeer{l: l2, hw: l2.FlushedEnd(), epoch: 2}, epochs: map[int]int{}}
	var mu sync.Mutex
	current := old
	resolve := func(instance string) (ReplicaPeer, error) {
		mu.Lock()
		defer mu.Unlock()
		if instance != "alpha" {
			return nil, fmt.Errorf("kafka: unknown broker %q", instance)
		}
		return current, nil
	}
	b, err := NewBroker(0, t.TempDir(), BrokerConfig{PartitionsPerTopic: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewReplicatedBroker(b, srv, ReplicatedConfig{Cluster: "t8", FetchWait: 5 * time.Millisecond}, resolve)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	p := isrPath("t8", "events", 0)
	publish := func(epoch int) {
		t.Helper()
		data, _ := json.Marshal(isrRecord{Epoch: epoch, Leader: "alpha", ISR: []string{"alpha", rb.Instance()}})
		if _, stat, err := sess.Get(p); err == nil {
			if _, err := sess.Set(p, data, stat.Version); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := sess.CreateAll(p, data); err != nil {
			t.Fatal(err)
		}
	}
	publish(1)
	if err := rb.apply(helix.Transition{
		Resource: "events", Partition: 0,
		From: helix.StateOffline, To: helix.StateStandby,
	}); err != nil {
		t.Fatal(err)
	}
	fl, err := rb.Broker().log("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "epoch-1 replication", 5*time.Second, func() bool { return fl.FlushedEnd() == l1.FlushedEnd() })

	mu.Lock()
	current = bumped
	mu.Unlock()
	publish(2)
	want, err := l2.ReadUncapped(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "replication under epoch 2", 5*time.Second, func() bool {
		got, err := fl.ReadUncapped(0, 1<<20)
		return err == nil && bytes.Equal(want, got)
	})
	if n := bumped.fetchesAt(2); n == 0 {
		t.Fatal("follower never fetched under epoch 2")
	}
}

// TestFollowerUnackedTailRepairedOnFailover reproduces the follower-divergence
// hazard: both followers hold distinct unacked tails past the high watermark
// (as if replicated from a leadership that died before acking them), the
// leader is killed, and one of those followers is promoted. The surviving
// follower must truncate to the watermark when it sees the new leader epoch —
// otherwise its first fetch lands mid-log on the promoted leader and the
// replica silently diverges byte-for-byte.
func TestFollowerUnackedTailRepairedOnFailover(t *testing.T) {
	c := newTestCluster(t, 3, ReplicatedConfig{
		Cluster: "t6", Replicas: 3, MinISR: 2,
		FetchWait: 200 * time.Millisecond, LagTimeout: 500 * time.Millisecond,
	})
	if err := c.AddTopic("div"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("div", 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	client := c.Client()
	defer client.Close()

	var payloads [][]byte
	var offsets []int64
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("acked-%03d", i))
		off, err := client.Produce("div", 0, NewMessageSet(payload))
		if err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		payloads, offsets = append(payloads, payload), append(offsets, off)
	}
	leader, err := c.LeaderOf("div", 0)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := c.Broker(leader).Broker().log("div", 0)
	if err != nil {
		t.Fatal(err)
	}
	hw := ll.FlushedEnd()
	for _, rb := range c.Brokers() {
		if rb.Instance() == leader {
			continue
		}
		fl, err := rb.Broker().log("div", 0)
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, "follower catch-up", 5*time.Second, func() bool {
			return fl.FlushedEnd() >= hw
		})
	}

	// Give each follower a distinct, valid-framed tail past the high
	// watermark: same length, different content — the byte-divergence shape
	// that a message-boundary check alone cannot catch.
	i := 0
	for _, rb := range c.Brokers() {
		if rb.Instance() == leader {
			continue
		}
		fl, err := rb.Broker().log("div", 0)
		if err != nil {
			t.Fatal(err)
		}
		rogue := NewMessageSet([]byte(fmt.Sprintf("unacked-tail-%d", i)))
		if err := fl.AppendAt(fl.FlushedEnd(), rogue.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := fl.Flush(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	c.Kill(leader)
	var promoted string
	waitCond(t, "promoted leader", 10*time.Second, func() bool {
		l, err := c.LeaderOf("div", 0)
		promoted = l
		return err == nil && l != leader
	})

	// Produce through the failover so the new leader's log grows past the
	// surviving follower's stale end — the exact window where a non-truncating
	// follower would fetch misaligned bytes and corrupt silently.
	for i := 5; i < 10; i++ {
		payload := []byte(fmt.Sprintf("acked-%03d", i))
		var off int64
		deadline := time.Now().Add(15 * time.Second)
		for {
			off, err = client.Produce("div", 0, NewMessageSet(payload))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("produce %d across failover: %v", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		payloads, offsets = append(payloads, payload), append(offsets, off)
	}

	// Every surviving replica must converge to the promoted leader's log,
	// byte-identical over its full range.
	pl, err := c.Broker(promoted).Broker().log("div", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.ReadUncapped(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range c.Brokers() {
		if rb.Instance() == promoted {
			continue
		}
		fl, err := rb.Broker().log("div", 0)
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, "follower convergence", 10*time.Second, func() bool {
			got, err := fl.ReadUncapped(0, 1<<20)
			return err == nil && bytes.Equal(want, got)
		})
	}
	// And the acked stream is intact at unchanged offsets.
	consumer := NewSimpleConsumer(client, 1<<20)
	msgs, err := consumer.Consume("div", 0, offsets[0])
	if err != nil {
		t.Fatal(err)
	}
	byOffset := map[int64][]byte{}
	for i, m := range msgs {
		start := offsets[0]
		if i > 0 {
			start = msgs[i-1].NextOffset
		}
		byOffset[start] = m.Payload
	}
	for i, off := range offsets {
		if !bytes.Equal(byOffset[off], payloads[i]) {
			t.Fatalf("acked message %d at offset %d: got %q, want %q", i, off, byOffset[off], payloads[i])
		}
	}
}

// kafka_replica_lag_bytes is the leader's durable end minus the slowest
// in-sync follower's position: above 0 while an in-sync follower has stopped
// fetching, 0 once every in-sync follower has caught up.
func TestReplicaLagGaugeTracksSlowestInSyncFollower(t *testing.T) {
	c := newTestCluster(t, 2, ReplicatedConfig{
		Cluster: "lag", Replicas: 2, MinISR: 1,
		FetchWait: 20 * time.Millisecond, LagTimeout: time.Minute,
	})
	if err := c.AddTopic("lag"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForISR("lag", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, err := c.LeaderOf("lag", 0)
	if err != nil {
		t.Fatal(err)
	}
	rb := c.Broker(leader)
	data, _, err := c.sess.Get(isrPath("lag", "lag", 0))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeISR(data)
	if err != nil {
		t.Fatal(err)
	}
	l, err := rb.Broker().log("lag", 0)
	if err != nil {
		t.Fatal(err)
	}
	gauge := mReplicaLag.With("lag/0")

	// A second follower joins the ISR at the current end and then pauses.
	// The long LagTimeout keeps it in sync, so the high watermark stalls at
	// its position and the appends below go straight to the leader's log.
	if _, _, err := rb.ReplicaFetch("lag", 0, l.FlushedEnd(), 1<<20, 0, "broker-paused", rec.Epoch); err != nil {
		t.Fatal(err)
	}
	paused := l.FlushedEnd()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(NewMessageSet([]byte(fmt.Sprintf("unacked-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	end := l.FlushedEnd()
	// The running follower's next fetch reports the paused one's distance.
	waitCond(t, "lag behind the paused follower", 5*time.Second, func() bool {
		return gauge.Value() == end-paused
	})

	// The paused follower catches up: every in-sync follower is at the end.
	waitCond(t, "lag back to 0", 5*time.Second, func() bool {
		if _, _, err := rb.ReplicaFetch("lag", 0, l.FlushedEnd(), 1<<20, 0, "broker-paused", rec.Epoch); err != nil {
			t.Fatal(err)
		}
		return gauge.Value() == 0
	})
}

// countingPeer counts the replica fetches a follower sends its leader.
type countingPeer struct {
	ReplicaPeer
	fetches atomic.Int64
}

func (p *countingPeer) ReplicaFetch(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (int64, []byte, error) {
	p.fetches.Add(1)
	return p.ReplicaPeer.ReplicaFetch(topic, partition, offset, maxBytes, wait, follower, epoch)
}

// TestReplicaFetcherTailLongPollNoBusySpin: a caught-up ISR follower parks in
// long-poll replica fetches at the leader's idle tail. With a 100 ms
// FetchWait an idle 500 ms window takes about 5 fetches; a follower that
// re-fetched without parking would issue thousands.
func TestReplicaFetcherTailLongPollNoBusySpin(t *testing.T) {
	srv := zk.NewServer()
	ctrl, err := helix.NewController(srv, "t9") // cluster tree only; never started
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	cfg := ReplicatedConfig{Cluster: "t9", FetchWait: 100 * time.Millisecond}
	newRB := func(id int, resolve PeerResolver) *ReplicatedBroker {
		t.Helper()
		b, err := NewBroker(id, t.TempDir(), BrokerConfig{PartitionsPerTopic: 1})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewReplicatedBroker(b, srv, cfg, resolve)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rb.Close() })
		return rb
	}
	leader := newRB(0, func(string) (ReplicaPeer, error) { return nil, errors.New("leader fetches from nobody") })
	peer := &countingPeer{ReplicaPeer: leader}
	follower := newRB(1, func(instance string) (ReplicaPeer, error) {
		if instance != leader.Instance() {
			return nil, fmt.Errorf("kafka: unknown broker %q", instance)
		}
		return peer, nil
	})
	if err := leader.apply(helix.Transition{Resource: "idle", Partition: 0, From: helix.StateStandby, To: helix.StateLeader}); err != nil {
		t.Fatal(err)
	}
	if err := follower.apply(helix.Transition{Resource: "idle", Partition: 0, From: helix.StateOffline, To: helix.StateStandby}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Produce("idle", 0, NewMessageSet([]byte("only"))); err != nil {
		t.Fatal(err)
	}
	ll, err := leader.Broker().log("idle", 0)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := follower.Broker().log("idle", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "follower catch-up", 5*time.Second, func() bool { return fl.FlushedEnd() == ll.FlushedEnd() })

	base := peer.fetches.Load()
	time.Sleep(500 * time.Millisecond)
	if n := peer.fetches.Load() - base; n > 20 {
		t.Fatalf("caught-up follower issued %d replica fetches in 500ms — busy-spinning", n)
	}
}
