package kafka

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"datainfra/internal/helix"
	"datainfra/internal/resilience"
	"datainfra/internal/zk"
)

// This file is the intra-cluster replication the paper names as Kafka's most
// important missing piece (§V.D), built the way production Kafka later did
// it: every topic partition has a replica set of brokers, one of which is
// elected leader through a Helix LeaderStandby state machine over zk.
// Followers pull the leader's log byte-identically (physical offsets — the
// message addresses — are preserved, so a consumer's saved offset survives
// failover exactly). The leader tracks an in-sync replica set (ISR) and a
// high watermark: the largest offset every ISR member has durably
// replicated. Produce acks gate on the high watermark and consumers never
// see bytes above it, so a message acked to a producer exists on every
// in-sync replica and cannot be lost by any single broker death. On leader
// death the Helix controller promotes an ISR member (the election preference
// filter keeps non-ISR replicas out), and clients re-resolve the leader from
// the zk metadata they already watch.

// Replication errors.
var (
	// ErrNotEnoughReplicas rejects produces while the ISR is below MinISR —
	// accepting them would ack writes a single failure could lose.
	ErrNotEnoughReplicas = errors.New("kafka: not enough in-sync replicas")
	// ErrAckTimeout reports a produce that appended to the leader log but was
	// not covered by the high watermark in time. The message may still
	// commit; a retrying producer makes delivery at-least-once (§V.D).
	ErrAckTimeout = errors.New("kafka: timed out waiting for replica acks")
)

// ReplicatedConfig tunes ISR replication.
type ReplicatedConfig struct {
	Cluster       string        // zk/helix namespace; default "kafka"
	Replicas      int           // replicas per partition incl. leader; default 2
	MinISR        int           // produces rejected below this ISR size; default 1
	AckTimeout    time.Duration // produce wait for the high watermark; default 5s
	MaxLagBytes   int64         // follower may trail this much and still join the ISR; default 0 (caught up)
	LagTimeout    time.Duration // follower silence before ISR eviction; default 2s
	FetchWait     time.Duration // follower long-poll at the leader tail; default 250ms
	FetchMaxBytes int           // replica fetch chunk cap; default 256 KiB
}

func (c *ReplicatedConfig) withDefaults() {
	if c.Cluster == "" {
		c.Cluster = "kafka"
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.MinISR == 0 {
		c.MinISR = 1
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.LagTimeout == 0 {
		c.LagTimeout = 2 * time.Second
	}
	if c.FetchWait == 0 {
		c.FetchWait = 250 * time.Millisecond
	}
	if c.FetchMaxBytes == 0 {
		c.FetchMaxBytes = 256 << 10
	}
	// A healthy idle follower reports its position once per long-poll; the
	// eviction timeout must comfortably exceed that cadence.
	if c.LagTimeout < 2*c.FetchWait {
		c.LagTimeout = 2 * c.FetchWait
	}
}

// isrRecord is the per-partition replication metadata in zk, the epoch CAS
// fencing a deposed leader: every publish is a compare-and-set on the znode
// version, so two brokers believing they lead the same partition cannot both
// win — the loser sees the version conflict and steps down.
type isrRecord struct {
	Epoch  int      `json:"epoch"`
	Leader string   `json:"leader"`
	ISR    []string `json:"isr"`
}

func decodeISR(data []byte) (isrRecord, error) {
	var rec isrRecord
	err := json.Unmarshal(data, &rec)
	return rec, err
}

func isrPath(cluster, topic string, partition int) string {
	return fmt.Sprintf("/kafka/%s/isr/%s/%d", cluster, topic, partition)
}

func topicMetaPath(cluster, topic string) string {
	return fmt.Sprintf("/kafka/%s/topics/%s", cluster, topic)
}

// ReplicaPeer is the leader surface a follower replicates from; implemented
// by *RemoteBroker (TCP) and *ReplicatedBroker (in-process). epoch is the
// leader epoch the follower is fetching under (from the zk ISR record); the
// serving broker rejects any fetch whose epoch differs from its own, so a
// follower can never replicate from a stale leader and a stale leader learns
// of its deposition from the first higher-epoch fetch.
type ReplicaPeer interface {
	ReplicaFetch(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (hw int64, chunk []byte, err error)
}

// ClusterPeer is the full broker surface a routed client talks to.
type ClusterPeer interface {
	BrokerClient
	BlockingFetcher
}

// PeerResolver turns a Helix instance name into a connection to that broker.
type PeerResolver func(instance string) (ReplicaPeer, error)

// followerPos is the leader's view of one follower.
type followerPos struct {
	off  int64     // next offset the follower will fetch: everything below is durable there
	seen time.Time // last replica fetch
}

// partState is one partition's replication state on one broker.
type partState struct {
	topic  string
	part   int
	isrRec *zk.Memo[isrRecord] // the zk ISR record, decoded once per change

	// lead fences leader appends against demotion: Produce holds the read
	// side across its leadership check, append and flush; becomeStandby holds
	// the write side across the role flip and its divergence truncate. An
	// append can therefore never interleave with the truncate and leak local
	// bytes into a log that has become a follower replica.
	lead sync.RWMutex

	mu      sync.Mutex
	role    helix.State
	deposed bool // lost the epoch CAS: a newer leader exists
	epoch   int
	zkVer   int // ISR znode version for CAS publishes
	isr     map[string]bool
	pos     map[string]*followerPos
	hw      int64
	hwCh    chan struct{} // closed and replaced when hw advances

	stopFollower chan struct{}
	stopLeader   chan struct{}
	done         sync.WaitGroup
}

func (st *partState) label() string {
	return st.topic + "/" + strconv.Itoa(st.part)
}

// ReplicatedBroker wraps a Broker with ISR replication: it participates in
// the Helix LeaderStandby machine, leads or follows each assigned partition,
// and routes produces through high-watermark ack gating.
type ReplicatedBroker struct {
	broker   *Broker
	cfg      ReplicatedConfig
	instance string
	sess     *zk.Session
	helixP   *helix.Participant
	resolve  PeerResolver

	mu     sync.Mutex
	parts  map[topicPartition]*partState
	closed bool
	stop   chan struct{}
}

// NewReplicatedBroker attaches b to the replication cluster: it registers a
// Helix participant named "broker-<id>" and starts applying LeaderStandby
// transitions. resolve connects to peer brokers by instance name.
func NewReplicatedBroker(b *Broker, srv *zk.Server, cfg ReplicatedConfig, resolve PeerResolver) (*ReplicatedBroker, error) {
	cfg.withDefaults()
	rb := &ReplicatedBroker{
		broker:   b,
		cfg:      cfg,
		instance: fmt.Sprintf("broker-%d", b.ID()),
		sess:     srv.NewSession(),
		resolve:  resolve,
		parts:    map[topicPartition]*partState{},
		stop:     make(chan struct{}),
	}
	b.SetProduceHandler(rb.Produce)
	b.SetReplicaHandler(rb.ReplicaFetch)
	p, err := helix.NewParticipant(srv, cfg.Cluster, rb.instance, helix.StateModelFunc(rb.apply))
	if err != nil {
		rb.sess.Close()
		return nil, err
	}
	rb.helixP = p
	return rb, nil
}

// Instance returns the Helix instance name ("broker-<id>").
func (rb *ReplicatedBroker) Instance() string { return rb.instance }

// Broker returns the wrapped broker.
func (rb *ReplicatedBroker) Broker() *Broker { return rb.broker }

func (rb *ReplicatedBroker) state(tp topicPartition) *partState {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	st, ok := rb.parts[tp]
	if !ok {
		st = &partState{
			topic:  tp.topic,
			part:   tp.partition,
			isrRec: zk.NewMemo(rb.sess, isrPath(rb.cfg.Cluster, tp.topic, tp.partition), decodeISR),
			role:   helix.StateOffline,
			isr:    map[string]bool{},
			pos:    map[string]*followerPos{},
			hwCh:   make(chan struct{}),
		}
		rb.parts[tp] = st
	}
	return st
}

func (rb *ReplicatedBroker) lookup(topic string, partition int) (*partState, bool) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	st, ok := rb.parts[topicPartition{topic, partition}]
	return st, ok
}

// apply is the LeaderStandby StateModel.
func (rb *ReplicatedBroker) apply(t helix.Transition) error {
	st := rb.state(topicPartition{t.Resource, t.Partition})
	switch {
	case t.To == helix.StateStandby && t.From == helix.StateOffline:
		return rb.becomeStandby(st, false)
	case t.To == helix.StateLeader:
		return rb.becomeLeader(st)
	case t.To == helix.StateStandby && t.From == helix.StateLeader:
		return rb.becomeStandby(st, true)
	case t.To == helix.StateOffline:
		rb.stopRoles(st)
		st.mu.Lock()
		st.role = helix.StateOffline
		st.mu.Unlock()
		return nil
	}
	return nil
}

// stopRoles halts the partition's follower loop and leader ticker.
func (rb *ReplicatedBroker) stopRoles(st *partState) {
	st.mu.Lock()
	if st.stopFollower != nil {
		close(st.stopFollower)
		st.stopFollower = nil
	}
	if st.stopLeader != nil {
		close(st.stopLeader)
		st.stopLeader = nil
	}
	// Wake produce waiters so they observe the role change.
	close(st.hwCh)
	st.hwCh = make(chan struct{})
	st.mu.Unlock()
	st.done.Wait()
}

// becomeStandby starts following the partition leader. A demoted leader
// first truncates its unreplicated tail: bytes above the high watermark were
// never acked to any producer and must not survive into the new epoch (the
// new leader's log is the truth now).
func (rb *ReplicatedBroker) becomeStandby(st *partState, fromLeader bool) error {
	rb.stopRoles(st)
	l, err := rb.broker.log(st.topic, st.part)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	// Flip the role and truncate under the leadership write lock: an
	// in-flight leader append either completes first (and its unacked bytes
	// are cut here with the rest of the tail) or blocks until the truncate is
	// done and then sees the standby role and is rejected.
	st.lead.Lock()
	st.mu.Lock()
	st.role = helix.StateStandby
	st.deposed = false
	st.stopFollower = stop
	st.mu.Unlock()
	err = l.TruncateTo(l.Latest())
	st.lead.Unlock()
	if err != nil {
		return err
	}
	st.done.Add(1)
	go rb.followerLoop(st, l, stop)
	return nil
}

// becomeLeader takes over the partition: the ISR collapses to {self}, the
// high watermark becomes the local durable end (as an ISR member the log
// holds every acked byte), and the new epoch is fenced into zk with a CAS.
func (rb *ReplicatedBroker) becomeLeader(st *partState) error {
	rb.stopRoles(st)
	l, err := rb.broker.log(st.topic, st.part)
	if err != nil {
		return err
	}
	if err := l.Flush(); err != nil {
		return err
	}
	hw := l.FlushedEnd()
	l.SetLimit(hw)

	// Fence the new epoch: CAS over whatever the previous leader published.
	rec, ver := readISR(st)
	epoch := rec.Epoch + 1
	stop := make(chan struct{})
	st.mu.Lock()
	st.role = helix.StateLeader
	st.deposed = false
	st.epoch = epoch
	st.zkVer = ver
	st.isr = map[string]bool{rb.instance: true}
	st.pos = map[string]*followerPos{}
	st.hw = hw
	st.stopLeader = stop
	if err := rb.publishISRLocked(st); err != nil {
		st.mu.Unlock()
		return err
	}
	mPartitionHW.With(st.label()).Set(hw)
	mISRSize.With(st.label()).Set(1)
	mReplicaLag.With(st.label()).Set(0)
	st.mu.Unlock()

	st.done.Add(1)
	go rb.leaderLoop(st, stop)
	return nil
}

// readISR returns the partition's ISR record and znode version (-1 when the
// znode does not exist yet). The record is shared with other readers and
// must not be modified.
func readISR(st *partState) (isrRecord, int) {
	rec, stat, err := st.isrRec.Get()
	switch {
	case err == nil:
		return rec, stat.Version
	case errors.Is(err, zk.ErrNoNode):
		return isrRecord{}, -1
	default: // undecodable record
		return isrRecord{}, stat.Version
	}
}

// publishISRLocked CAS-writes the partition's ISR record. A version conflict
// means a newer leader fenced us out: the broker marks itself deposed and
// every produce waiter fails with ErrNotLeader. Caller holds st.mu.
func (rb *ReplicatedBroker) publishISRLocked(st *partState) error {
	members := make([]string, 0, len(st.isr))
	for m := range st.isr {
		members = append(members, m)
	}
	sort.Strings(members)
	data, err := json.Marshal(isrRecord{Epoch: st.epoch, Leader: rb.instance, ISR: members})
	if err != nil {
		return err
	}
	p := isrPath(rb.cfg.Cluster, st.topic, st.part)
	for attempt := 0; attempt < 3; attempt++ {
		if st.zkVer < 0 {
			if err := rb.sess.CreateAll(p, data); err != nil {
				return err
			}
			_, stat, err := rb.sess.Get(p)
			if err != nil {
				return err
			}
			st.zkVer = stat.Version
			return nil
		}
		stat, err := rb.sess.Set(p, data, st.zkVer)
		if err == nil {
			st.zkVer = stat.Version
			return nil
		}
		if !errors.Is(err, zk.ErrBadVersion) {
			return err
		}
		rec, ver := readISR(st)
		if rec.Epoch > st.epoch {
			st.deposed = true
			close(st.hwCh)
			st.hwCh = make(chan struct{})
			return fmt.Errorf("%w: fenced by epoch %d", ErrNotLeader, rec.Epoch)
		}
		st.zkVer = ver
	}
	return fmt.Errorf("kafka: isr publish for %s: version churn", st.label())
}

// Produce is the replicated produce path: reject unless leading with a full
// enough ISR, append + flush under the leadership read lock, then block until
// the high watermark covers the message (every in-sync replica has it
// durably) or AckTimeout passes.
func (rb *ReplicatedBroker) Produce(topic string, partition int, set MessageSet) (int64, error) {
	st, ok := rb.lookup(topic, partition)
	if !ok {
		return 0, fmt.Errorf("%w: %s/%d not assigned here", ErrNotLeader, topic, partition)
	}
	l, err := rb.broker.log(topic, partition)
	if err != nil {
		return 0, err
	}
	off, err := rb.leaderAppend(st, l, set)
	if err != nil {
		return 0, err
	}
	mProduceRequests.Inc()
	mProduceBytes.Add(int64(set.Len()))
	end := off + int64(set.Len())
	rb.advanceHW(st, l)

	deadline := time.NewTimer(rb.cfg.AckTimeout)
	defer deadline.Stop()
	for {
		st.mu.Lock()
		if st.hw >= end {
			st.mu.Unlock()
			return off, nil
		}
		if st.role != helix.StateLeader || st.deposed {
			st.mu.Unlock()
			return 0, fmt.Errorf("%w: deposed while awaiting acks for %s/%d", ErrNotLeader, topic, partition)
		}
		ch := st.hwCh
		st.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			mISRAckTimeouts.Inc()
			return 0, fmt.Errorf("%w: %s/%d offset %d", ErrAckTimeout, topic, partition, off)
		case <-rb.stop:
			return 0, errors.New("kafka: replicated broker closed")
		}
	}
}

// leaderAppend runs the leadership check, append and flush as one unit under
// the partition's leadership read lock, so a concurrent demotion (which takes
// the write side across its role flip and truncate) cannot interleave and
// leave locally-appended bytes in a log that has started following.
func (rb *ReplicatedBroker) leaderAppend(st *partState, l *Log, set MessageSet) (int64, error) {
	st.lead.RLock()
	defer st.lead.RUnlock()
	st.mu.Lock()
	if st.role != helix.StateLeader || st.deposed {
		st.mu.Unlock()
		return 0, fmt.Errorf("%w: %s/%d", ErrNotLeader, st.topic, st.part)
	}
	if n := len(st.isr); n < rb.cfg.MinISR {
		st.mu.Unlock()
		return 0, fmt.Errorf("%w: %s/%d has %d, need %d", ErrNotEnoughReplicas, st.topic, st.part, n, rb.cfg.MinISR)
	}
	st.mu.Unlock()
	off, err := l.Append(set)
	if err != nil {
		return 0, err
	}
	// Durable locally before followers can replicate it or the high
	// watermark can cover it.
	if err := l.Flush(); err != nil {
		return 0, err
	}
	return off, nil
}

// advanceHW recomputes the high watermark: the smallest durable position
// across the ISR (the leader's own position is its flushed end). Advancing
// it widens consumer visibility and wakes produce waiters.
func (rb *ReplicatedBroker) advanceHW(st *partState, l *Log) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.role != helix.StateLeader || st.deposed {
		return
	}
	min := l.FlushedEnd()
	for member := range st.isr {
		if member == rb.instance {
			continue
		}
		fp, ok := st.pos[member]
		if !ok {
			// No position report yet: this member cannot confirm anything
			// beyond the current watermark.
			if st.hw < min {
				min = st.hw
			}
			continue
		}
		if fp.off < min {
			min = fp.off
		}
	}
	if min > st.hw {
		st.hw = min
		l.SetLimit(min)
		close(st.hwCh)
		st.hwCh = make(chan struct{})
		mPartitionHW.With(st.label()).Set(min)
	}
}

// ReplicaFetch serves a follower's pull (op 6): fence the leader epoch,
// record the follower's position (its offset acks everything below), maybe
// readmit it to the ISR, return raw bytes past the high watermark cap,
// long-polling at the durable tail.
func (rb *ReplicatedBroker) ReplicaFetch(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (int64, []byte, error) {
	st, ok := rb.lookup(topic, partition)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s/%d not assigned here", ErrNotLeader, topic, partition)
	}
	l, err := rb.broker.log(topic, partition)
	if err != nil {
		return 0, nil, err
	}
	st.mu.Lock()
	if st.role != helix.StateLeader || st.deposed {
		st.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %s/%d", ErrNotLeader, topic, partition)
	}
	if epoch != st.epoch {
		// Epoch fence (Kafka's FENCED_LEADER_EPOCH): a follower fetching
		// under a newer epoch proves a newer election this broker missed —
		// depose locally so produce waiters fail fast instead of waiting for
		// acks that will never come. A follower on an older epoch must
		// re-read the ISR record (and truncate) before its fetches count.
		ferr := fmt.Errorf("%w: %s/%d fetch epoch %d, leader epoch %d",
			ErrNotLeader, topic, partition, epoch, st.epoch)
		if epoch > st.epoch {
			st.deposed = true
			close(st.hwCh)
			st.hwCh = make(chan struct{})
		}
		st.mu.Unlock()
		return 0, nil, ferr
	}
	fp, ok := st.pos[follower]
	if !ok {
		fp = &followerPos{}
		st.pos[follower] = fp
	}
	fp.off = offset
	fp.seen = time.Now()
	end := l.FlushedEnd()
	if !st.isr[follower] && offset+rb.cfg.MaxLagBytes >= end {
		st.isr[follower] = true
		if err := rb.publishISRLocked(st); err != nil {
			delete(st.isr, follower)
			st.mu.Unlock()
			return 0, nil, err
		}
		mISRExpands.Inc()
		mISRSize.With(st.label()).Set(int64(len(st.isr)))
	}
	mReplicaLag.With(st.label()).Set(replicaLagLocked(st, end))
	st.mu.Unlock()

	rb.advanceHW(st, l)

	chunk, err := l.ReadUncapped(offset, maxBytes)
	if err != nil {
		return 0, nil, err
	}
	if len(chunk) == 0 && wait > 0 {
		if l.WaitForDataUncapped(offset, wait, rb.stop) {
			chunk, err = l.ReadUncapped(offset, maxBytes)
			if err != nil {
				return 0, nil, err
			}
		}
	}
	st.mu.Lock()
	hw := st.hw
	deposed := st.deposed || st.role != helix.StateLeader
	st.mu.Unlock()
	if deposed {
		return 0, nil, fmt.Errorf("%w: %s/%d", ErrNotLeader, topic, partition)
	}
	return hw, chunk, nil
}

// replicaLagLocked is the leader's durable end minus the position of the
// slowest in-sync follower that has reported one (the leader itself never
// has): the bytes an ack is still waiting on. Caller holds st.mu.
func replicaLagLocked(st *partState, end int64) int64 {
	var lag int64
	for member := range st.isr {
		if fp, ok := st.pos[member]; ok && end-fp.off > lag {
			lag = end - fp.off
		}
	}
	return lag
}

// leaderLoop evicts silent followers from the ISR. Removing a laggard can
// advance the high watermark: the remaining members define what "fully
// replicated" means, exactly Kafka's acks=all semantics.
func (rb *ReplicatedBroker) leaderLoop(st *partState, stop chan struct{}) {
	defer st.done.Done()
	interval := rb.cfg.LagTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-rb.stop:
			return
		case <-t.C:
		}
		l, err := rb.broker.log(st.topic, st.part)
		if err != nil {
			continue
		}
		now := time.Now()
		st.mu.Lock()
		if st.role != helix.StateLeader || st.deposed {
			st.mu.Unlock()
			return
		}
		evicted := false
		for member := range st.isr {
			if member == rb.instance {
				continue
			}
			fp, ok := st.pos[member]
			if ok && now.Sub(fp.seen) <= rb.cfg.LagTimeout {
				continue
			}
			delete(st.isr, member)
			evicted = true
			mISRShrinks.Inc()
		}
		if evicted {
			if err := rb.publishISRLocked(st); err != nil {
				st.mu.Unlock()
				continue
			}
			mISRSize.With(st.label()).Set(int64(len(st.isr)))
		}
		st.mu.Unlock()
		if evicted {
			rb.advanceHW(st, l)
		}
	}
}

// maxReplicaFetchBytes caps the replica fetch window (and matches the wire
// frame limit); a single message can never legitimately exceed it.
const maxReplicaFetchBytes = 64 << 20

// followerLoop replicates the leader's log byte-for-byte: fetch from the
// local durable end, append at exactly that offset, flush, adopt the
// leader's high watermark as the local visibility limit. Chunks are cut at
// message boundaries so the local end — the next fetch offset and implicit
// ack — is always a valid message address.
func (rb *ReplicatedBroker) followerLoop(st *partState, l *Log, stop chan struct{}) {
	defer st.done.Done()
	var (
		peer       ReplicaPeer
		leaderName string
		epoch      = -1
	)
	fetchMax := rb.cfg.FetchMaxBytes
	pause := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-stop:
			return false
		case <-rb.stop:
			return false
		case <-t.C:
			return true
		}
	}
	// truncateToHW cuts the log back to the local high watermark — the
	// divergence repair: everything acked lies at or below the watermark and
	// is byte-identical on every ISR member, everything above may exist only
	// under a dead leadership and is refetched from the current leader.
	truncateToHW := func() bool {
		if err := l.TruncateTo(l.Latest()); err != nil {
			return false
		}
		return true
	}
	for {
		select {
		case <-stop:
			return
		case <-rb.stop:
			return
		default:
		}
		rec, _ := readISR(st)
		if rec.Leader == "" || rec.Leader == rb.instance {
			if !pause(5 * time.Millisecond) {
				return
			}
			continue
		}
		if peer == nil || leaderName != rec.Leader || epoch != rec.Epoch {
			// New leadership epoch: bytes replicated past the high watermark
			// may exist only on the previous leader — never acked, possibly
			// absent from (or different on) the new leader. Truncate to the
			// watermark before the first fetch so the local log stays a
			// byte-identical prefix of the new leader's log.
			if !truncateToHW() {
				if !pause(10 * time.Millisecond) {
					return
				}
				continue
			}
			p, err := rb.resolve(rec.Leader)
			if err != nil {
				if !pause(10 * time.Millisecond) {
					return
				}
				continue
			}
			peer, leaderName, epoch = p, rec.Leader, rec.Epoch
		}
		off := l.FlushedEnd()
		hw, chunk, err := peer.ReplicaFetch(st.topic, st.part, off, fetchMax, rb.cfg.FetchWait, rb.instance, epoch)
		if err != nil {
			switch {
			case errors.Is(err, ErrOffsetOutOfRange):
				// Our log diverges from (or ran ahead of) the leader's:
				// everything acked lies below our high watermark, so cut
				// back to it and re-fetch from there.
				truncateToHW()
			case errors.Is(err, ErrNotLeader):
				// Stale peer or epoch; re-resolve from zk next iteration.
				peer, leaderName, epoch = nil, "", -1
			}
			if !pause(10 * time.Millisecond) {
				return
			}
			continue
		}
		if len(chunk) > 0 {
			valid := validPrefix(chunk)
			if valid == 0 {
				if fetchMax >= maxReplicaFetchBytes {
					// Garbage even at the widest window: not an oversized
					// message but a misaligned chunk (divergence). Repair
					// and refetch instead of busy-spinning at the cap.
					truncateToHW()
					fetchMax = rb.cfg.FetchMaxBytes
					if !pause(10 * time.Millisecond) {
						return
					}
					continue
				}
				// First message exceeds the fetch window; widen and retry.
				fetchMax *= 2
				if fetchMax > maxReplicaFetchBytes {
					fetchMax = maxReplicaFetchBytes
				}
				continue
			}
			if err := l.AppendAt(off, chunk[:valid]); err != nil {
				continue
			}
			if err := l.Flush(); err != nil {
				continue
			}
			mReplicaMessages.Inc()
			fetchMax = rb.cfg.FetchMaxBytes
		}
		l.SetLimit(hw)
	}
}

// Close leaves the cluster: the Helix participant deregisters (its ephemeral
// vanishes, which is what the controller's failover reacts to), loops stop,
// and the wrapped broker shuts down.
func (rb *ReplicatedBroker) Close() error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.closed = true
	parts := make([]*partState, 0, len(rb.parts))
	for _, st := range rb.parts {
		parts = append(parts, st)
	}
	rb.mu.Unlock()
	close(rb.stop)
	rb.helixP.Close()
	for _, st := range parts {
		rb.stopRoles(st)
	}
	rb.sess.Close()
	return rb.broker.Close()
}

// Fetch, FetchWait, Offsets and Partitions serve from the local broker; the
// log's visibility limit already caps reads at the high watermark.

// Fetch implements BrokerClient.
func (rb *ReplicatedBroker) Fetch(topic string, partition int, offset int64, maxBytes int) ([]byte, error) {
	return rb.broker.Fetch(topic, partition, offset, maxBytes)
}

// FetchWait implements BlockingFetcher.
func (rb *ReplicatedBroker) FetchWait(topic string, partition int, offset int64, maxBytes int, wait time.Duration) ([]byte, error) {
	return rb.broker.FetchWait(topic, partition, offset, maxBytes, wait)
}

// Offsets implements BrokerClient.
func (rb *ReplicatedBroker) Offsets(topic string, partition int) (int64, int64, error) {
	return rb.broker.Offsets(topic, partition)
}

// Partitions implements BrokerClient.
func (rb *ReplicatedBroker) Partitions(topic string) (int, error) {
	return rb.broker.Partitions(topic)
}

// HighWatermark returns the partition's high watermark as this broker knows
// it (leaders: authoritative; followers: last value learned from the
// leader). Diagnostics and consistency checking.
func (rb *ReplicatedBroker) HighWatermark(topic string, partition int) int64 {
	if st, ok := rb.lookup(topic, partition); ok {
		st.mu.Lock()
		if st.role == helix.StateLeader {
			hw := st.hw
			st.mu.Unlock()
			return hw
		}
		st.mu.Unlock()
	}
	l, err := rb.broker.log(topic, partition)
	if err != nil {
		return 0
	}
	return l.Latest()
}

// Role returns the broker's current LeaderStandby state for a partition.
func (rb *ReplicatedBroker) Role(topic string, partition int) helix.State {
	st, ok := rb.lookup(topic, partition)
	if !ok {
		return helix.StateOffline
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.role
}

// ClientResolver turns an instance name into the client surface of that
// broker.
type ClientResolver func(instance string) (ClusterPeer, error)

// RoutedClient is a BrokerClient + BlockingFetcher over a replicated
// cluster: every operation resolves the partition leader from the zk ISR
// metadata (with a local cache), and leader changes — surfacing as
// ErrNotLeader or transport failures — invalidate the cache and retry, so a
// producer mid-stream rides a failover without seeing it.
type RoutedClient struct {
	sess    *zk.Session
	cluster string
	resolve ClientResolver
	retry   resilience.Policy

	mu      sync.Mutex
	leaders map[topicPartition]string
}

// NewRoutedClient builds a client over the cluster's zk metadata.
func NewRoutedClient(srv *zk.Server, cluster string, resolve ClientResolver) *RoutedClient {
	return &RoutedClient{
		sess:    srv.NewSession(),
		cluster: cluster,
		resolve: resolve,
		retry: resilience.Policy{
			MaxAttempts:    10,
			InitialBackoff: 2 * time.Millisecond,
			MaxBackoff:     250 * time.Millisecond,
			Retryable:      retryableRouted,
		},
		leaders: map[topicPartition]string{},
	}
}

// errNoLeader marks a partition whose election has not completed yet.
var errNoLeader = errors.New("kafka: no leader elected")

func retryableRouted(err error) bool {
	// ErrBreakerOpen is deliberately non-transient for a single endpoint
	// (resilience.IsTransient): hammering one broker's open breaker cannot
	// help. Routed clients walk a broker *list*, though, and an open breaker
	// on the cached leader is exactly the moment to invalidate the cache and
	// try the next broker — otherwise a dead leader stays pinned until its
	// breaker half-opens and every request fails fast in the meantime.
	return resilience.IsTransient(err) ||
		errors.Is(err, resilience.ErrBreakerOpen) ||
		errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrNotEnoughReplicas) ||
		errors.Is(err, ErrAckTimeout) ||
		errors.Is(err, errNoLeader)
}

// SetRetryPolicy overrides the routing retry policy (tests). The Retryable
// classifier is preserved.
func (rc *RoutedClient) SetRetryPolicy(p resilience.Policy) {
	p.Retryable = retryableRouted
	rc.retry = p
}

func (rc *RoutedClient) leader(tp topicPartition) (string, error) {
	rc.mu.Lock()
	if inst, ok := rc.leaders[tp]; ok {
		rc.mu.Unlock()
		return inst, nil
	}
	rc.mu.Unlock()
	data, _, err := rc.sess.Get(isrPath(rc.cluster, tp.topic, tp.partition))
	if err != nil {
		return "", fmt.Errorf("%w: %s/%d", errNoLeader, tp.topic, tp.partition)
	}
	rec, err := decodeISR(data)
	if err != nil || rec.Leader == "" {
		return "", fmt.Errorf("%w: %s/%d", errNoLeader, tp.topic, tp.partition)
	}
	rc.mu.Lock()
	rc.leaders[tp] = rec.Leader
	rc.mu.Unlock()
	return rec.Leader, nil
}

func (rc *RoutedClient) invalidate(tp topicPartition) {
	rc.mu.Lock()
	delete(rc.leaders, tp)
	rc.mu.Unlock()
}

// do runs fn against the partition leader, re-resolving and retrying on
// leader changes and transient failures.
func (rc *RoutedClient) do(topic string, partition int, fn func(ClusterPeer) error) error {
	tp := topicPartition{topic, partition}
	return resilience.Retry(context.Background(), rc.retry, func() error {
		inst, err := rc.leader(tp)
		if err != nil {
			return err
		}
		peer, err := rc.resolve(inst)
		if err != nil {
			rc.invalidate(tp)
			return err
		}
		if err := fn(peer); err != nil {
			if retryableRouted(err) {
				rc.invalidate(tp)
			}
			return err
		}
		return nil
	})
}

// Produce implements BrokerClient. Retrying across ack timeouts and
// failovers makes delivery at-least-once: an append whose ack was lost may
// be re-sent to the new leader.
func (rc *RoutedClient) Produce(topic string, partition int, set MessageSet) (int64, error) {
	var off int64
	err := rc.do(topic, partition, func(p ClusterPeer) error {
		var err error
		off, err = p.Produce(topic, partition, set)
		return err
	})
	return off, err
}

// Fetch implements BrokerClient.
func (rc *RoutedClient) Fetch(topic string, partition int, offset int64, maxBytes int) ([]byte, error) {
	var chunk []byte
	err := rc.do(topic, partition, func(p ClusterPeer) error {
		var err error
		chunk, err = p.Fetch(topic, partition, offset, maxBytes)
		return err
	})
	return chunk, err
}

// FetchWait implements BlockingFetcher.
func (rc *RoutedClient) FetchWait(topic string, partition int, offset int64, maxBytes int, wait time.Duration) ([]byte, error) {
	var chunk []byte
	err := rc.do(topic, partition, func(p ClusterPeer) error {
		var err error
		chunk, err = p.FetchWait(topic, partition, offset, maxBytes, wait)
		return err
	})
	return chunk, err
}

// Offsets implements BrokerClient.
func (rc *RoutedClient) Offsets(topic string, partition int) (int64, int64, error) {
	var earliest, latest int64
	err := rc.do(topic, partition, func(p ClusterPeer) error {
		var err error
		earliest, latest, err = p.Offsets(topic, partition)
		return err
	})
	return earliest, latest, err
}

// Partitions implements BrokerClient from the topic metadata znode.
func (rc *RoutedClient) Partitions(topic string) (int, error) {
	data, _, err := rc.sess.Get(topicMetaPath(rc.cluster, topic))
	if err != nil {
		return 0, fmt.Errorf("kafka: topic %q not registered: %w", topic, err)
	}
	n, err := strconv.Atoi(string(data))
	if err != nil {
		return 0, fmt.Errorf("kafka: topic %q metadata corrupt: %w", topic, err)
	}
	return n, nil
}

// Close releases the zk session.
func (rc *RoutedClient) Close() { rc.sess.Close() }

// ReplicatedCluster wires a whole in-process replicated cluster: zk, the
// Helix controller with ISR-aware election, and one ReplicatedBroker per
// data directory. The unit chaos and consistency suites drive it directly;
// cmd/kafka-broker exposes the same wiring over TCP.
type ReplicatedCluster struct {
	cfg  ReplicatedConfig
	bcfg BrokerConfig

	ZK         *zk.Server
	Controller *helix.Controller
	sess       *zk.Session

	mu      sync.Mutex
	brokers map[string]*ReplicatedBroker
}

// NewReplicatedCluster starts one broker per data directory, all joined to a
// fresh zk namespace and controller.
func NewReplicatedCluster(dataDirs []string, bcfg BrokerConfig, cfg ReplicatedConfig) (*ReplicatedCluster, error) {
	cfg.withDefaults()
	bcfg.withDefaults()
	srv := zk.NewServer()
	ctrl, err := helix.NewController(srv, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	c := &ReplicatedCluster{
		cfg:        cfg,
		bcfg:       bcfg,
		ZK:         srv,
		Controller: ctrl,
		sess:       srv.NewSession(),
		brokers:    map[string]*ReplicatedBroker{},
	}
	for i, dir := range dataDirs {
		b, err := NewBroker(i, dir, bcfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		rb, err := NewReplicatedBroker(b, srv, cfg, c.peer)
		if err != nil {
			b.Close()
			c.Close()
			return nil, err
		}
		c.mu.Lock()
		c.brokers[rb.Instance()] = rb
		c.mu.Unlock()
	}
	ctrl.Start()
	return c, nil
}

func (c *ReplicatedCluster) peer(instance string) (ReplicaPeer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rb, ok := c.brokers[instance]
	if !ok {
		return nil, fmt.Errorf("kafka: unknown broker %q", instance)
	}
	return rb, nil
}

func (c *ReplicatedCluster) clientPeer(instance string) (ClusterPeer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rb, ok := c.brokers[instance]
	if !ok {
		return nil, fmt.Errorf("kafka: unknown broker %q", instance)
	}
	return rb, nil
}

// Broker returns a broker by instance name ("broker-<id>").
func (c *ReplicatedCluster) Broker(instance string) *ReplicatedBroker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brokers[instance]
}

// Brokers lists the live brokers sorted by instance name.
func (c *ReplicatedCluster) Brokers() []*ReplicatedBroker {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.brokers))
	for n := range c.brokers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*ReplicatedBroker, 0, len(names))
	for _, n := range names {
		out = append(out, c.brokers[n])
	}
	return out
}

// AddTopic registers a topic: its partition count goes into zk for clients,
// the Helix resource (LeaderStandby) triggers elections, and the ISR
// preference filter keeps out-of-sync replicas from ever being promoted —
// the invariant that makes high-watermark acks loss-free.
func (c *ReplicatedCluster) AddTopic(topic string) error {
	n := c.bcfg.PartitionsPerTopic
	if err := c.sess.CreateAll(topicMetaPath(c.cfg.Cluster, topic), []byte(strconv.Itoa(n))); err != nil {
		return err
	}
	c.Controller.SetPreferenceFilter(topic, c.isrPreference(topic))
	return c.Controller.AddResource(&helix.Resource{
		Name:          topic,
		NumPartitions: n,
		Replicas:      c.cfg.Replicas,
		StateModel:    helix.ModelLeaderStandby,
	})
}

// isrPreference orders a partition's election candidates: the recorded
// leader first (stickiness), then other ISR members, then the rest. An
// out-of-sync replica is only promoted when no ISR member survives — and
// then only because losing unacked data beats losing the whole partition
// (Kafka's unclean election, which MinISR >= 2 makes unreachable for acked
// messages while any single failure is in play).
func (c *ReplicatedCluster) isrPreference(topic string) helix.PreferenceFilter {
	return ISRPreference(c.sess, c.cfg.Cluster, topic)
}

// ISRPreference builds the election preference filter for a topic from the
// cluster's zk metadata; exported so TCP deployments (cmd/kafka-broker and
// the chaos suites) can wire the same election policy by hand. Each
// partition's ISR record is decoded once per change, not once per rebalance.
func ISRPreference(sess *zk.Session, cluster, topic string) helix.PreferenceFilter {
	var records sync.Map // partition -> *zk.Memo[isrRecord]
	return func(partition int, chosen []string) []string {
		m, ok := records.Load(partition)
		if !ok {
			m, _ = records.LoadOrStore(partition, zk.NewMemo(sess, isrPath(cluster, topic, partition), decodeISR))
		}
		rec, _, err := m.(*zk.Memo[isrRecord]).Get()
		if err != nil {
			return chosen
		}
		inISR := map[string]bool{}
		for _, m := range rec.ISR {
			inISR[m] = true
		}
		var front, back []string
		for _, inst := range chosen {
			switch {
			case inst == rec.Leader && inISR[inst]:
				front = append([]string{inst}, front...)
			case inISR[inst]:
				front = append(front, inst)
			default:
				back = append(back, inst)
			}
		}
		return append(front, back...)
	}
}

// Client returns a leader-routing client over the cluster.
func (c *ReplicatedCluster) Client() *RoutedClient {
	return NewRoutedClient(c.ZK, c.cfg.Cluster, c.clientPeer)
}

// Kill removes a broker abruptly (its zk session expires, triggering
// failover) and returns it; nil when unknown.
func (c *ReplicatedCluster) Kill(instance string) *ReplicatedBroker {
	c.mu.Lock()
	rb, ok := c.brokers[instance]
	if ok {
		delete(c.brokers, instance)
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	rb.Close()
	return rb
}

// LeaderOf resolves the current leader instance of a partition from zk.
func (c *ReplicatedCluster) LeaderOf(topic string, partition int) (string, error) {
	data, _, err := c.sess.Get(isrPath(c.cfg.Cluster, topic, partition))
	if err != nil {
		return "", err
	}
	rec, err := decodeISR(data)
	if err != nil {
		return "", err
	}
	if rec.Leader == "" {
		return "", fmt.Errorf("%w: %s/%d", errNoLeader, topic, partition)
	}
	return rec.Leader, nil
}

// ISROf returns the recorded in-sync replica set of a partition.
func (c *ReplicatedCluster) ISROf(topic string, partition int) []string {
	data, _, err := c.sess.Get(isrPath(c.cfg.Cluster, topic, partition))
	if err != nil {
		return nil
	}
	rec, err := decodeISR(data)
	if err != nil {
		return nil
	}
	return rec.ISR
}

// WaitForISR blocks until every partition of the topic has an elected
// leader and at least want ISR members, or the timeout passes.
func (c *ReplicatedCluster) WaitForISR(topic string, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	n := c.bcfg.PartitionsPerTopic
	for {
		ready := 0
		for p := 0; p < n; p++ {
			if len(c.ISROf(topic, p)) >= want {
				ready++
			}
		}
		if ready == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("kafka: topic %q: %d/%d partitions reached isr>=%d", topic, ready, n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close shuts down every broker, the controller and zk sessions.
func (c *ReplicatedCluster) Close() {
	c.mu.Lock()
	brokers := make([]*ReplicatedBroker, 0, len(c.brokers))
	for _, rb := range c.brokers {
		brokers = append(brokers, rb)
	}
	c.brokers = map[string]*ReplicatedBroker{}
	c.mu.Unlock()
	for _, rb := range brokers {
		rb.Close()
	}
	c.Controller.Close()
	c.sess.Close()
}
