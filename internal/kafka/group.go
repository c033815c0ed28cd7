package kafka

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"datainfra/internal/zk"
)

// PartitionID names one partition across the cluster: broker id + partition
// index within that broker.
type PartitionID struct {
	Broker    int
	Partition int
}

// String renders "broker-partition", the zk child-name form.
func (p PartitionID) String() string { return fmt.Sprintf("%d-%d", p.Broker, p.Partition) }

func parsePartitionID(s string) (PartitionID, error) {
	var b, p int
	if _, err := fmt.Sscanf(s, "%d-%d", &b, &p); err != nil {
		return PartitionID{}, err
	}
	return PartitionID{Broker: b, Partition: p}, nil
}

// GroupMsg is a message delivered through a consumer-group stream.
type GroupMsg struct {
	Topic      string
	Partition  PartitionID
	Payload    []byte
	NextOffset int64
}

// GroupConfig tunes a group consumer.
type GroupConfig struct {
	MaxFetchBytes  int           // per-fetch cap; default 300 KB
	CommitInterval time.Duration // auto offset commit; default 50ms
	StreamBuffer   int           // channel depth; default 1024
	FromEarliest   bool          // start at the log head when no offset is stored
}

// GroupConsumer is a member of a consumer group (§V.C): it registers itself
// in zk, watches for membership and broker changes, rebalances so each
// partition is consumed by exactly one member of the group, and tracks
// consumed offsets in zk. Different groups each get the full stream
// (publish/subscribe); members of one group share it (point-to-point).
type GroupConsumer struct {
	group, id string
	topics    []string
	brokers   map[int]BrokerClient
	cfg       GroupConfig

	sess *zk.Session

	mu         sync.Mutex
	owned      map[string]map[PartitionID]*fetcher // topic -> owned partitions
	rebalances int
	closed     bool

	ch   chan GroupMsg
	stop chan struct{}
	wg   sync.WaitGroup
}

type fetcher struct {
	stop chan struct{}
	done chan struct{}
}

// NewGroupConsumer registers the consumer and starts its rebalance and fetch
// machinery. Messages arrive on Messages().
func NewGroupConsumer(srv *zk.Server, group, id string, topics []string, brokers map[int]BrokerClient, cfg GroupConfig) (*GroupConsumer, error) {
	if cfg.MaxFetchBytes == 0 {
		cfg.MaxFetchBytes = 300 << 10
	}
	if cfg.CommitInterval == 0 {
		cfg.CommitInterval = 50 * time.Millisecond
	}
	if cfg.StreamBuffer == 0 {
		cfg.StreamBuffer = 1024
	}
	sess := srv.NewSession()
	g := &GroupConsumer{
		group:   group,
		id:      id,
		topics:  topics,
		brokers: brokers,
		cfg:     cfg,
		sess:    sess,
		owned:   map[string]map[PartitionID]*fetcher{},
		ch:      make(chan GroupMsg, cfg.StreamBuffer),
		stop:    make(chan struct{}),
	}
	idsDir := fmt.Sprintf("/consumers/%s/ids", group)
	if err := sess.CreateAll(idsDir, nil); err != nil {
		sess.Close()
		return nil, err
	}
	if _, err := sess.Create(idsDir+"/"+id, nil, zk.FlagEphemeral); err != nil {
		sess.Close()
		return nil, fmt.Errorf("kafka: registering consumer %s: %w", id, err)
	}
	g.wg.Add(1)
	go g.coordinatorLoop()
	return g, nil
}

// Messages returns the merged stream of all partitions this member owns.
func (g *GroupConsumer) Messages() <-chan GroupMsg { return g.ch }

// Rebalances reports how many rebalance passes have run (E14 metric).
func (g *GroupConsumer) Rebalances() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rebalances
}

// Owned returns the partitions this member currently consumes for topic.
func (g *GroupConsumer) Owned(topic string) []PartitionID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []PartitionID
	for p := range g.owned[topic] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].String() < out[j].String()
	})
	return out
}

// allPartitions enumerates the cluster's partitions for topic (sorted).
func (g *GroupConsumer) allPartitions(topic string) []PartitionID {
	var out []PartitionID
	ids := make([]int, 0, len(g.brokers))
	for id := range g.brokers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n, err := g.brokers[id].Partitions(topic)
		if err != nil {
			continue
		}
		for p := 0; p < n; p++ {
			out = append(out, PartitionID{Broker: id, Partition: p})
		}
	}
	return out
}

// coordinatorLoop watches group membership and rebalances (§V.C: zk detects
// consumer addition/removal and triggers a rebalance in each consumer).
func (g *GroupConsumer) coordinatorLoop() {
	defer g.wg.Done()
	ids := zk.NewChildWatch(g.sess, fmt.Sprintf("/consumers/%s/ids", g.group))
	for {
		members, err := ids.List()
		if err != nil {
			return
		}
		g.rebalance(members)
		select {
		case <-g.stop:
			return
		case <-ids.Fired():
			ids.Rearm()
		case <-time.After(200 * time.Millisecond):
			// periodic re-check (new topics/partitions appear without a
			// membership event)
		}
	}
}

// rebalance deterministically divides each topic's partitions among the
// sorted members; every member runs the same algorithm on the same zk data,
// so they agree without extra coordination.
func (g *GroupConsumer) rebalance(members []string) {
	sort.Strings(members)
	myIdx := -1
	for i, m := range members {
		if m == g.id {
			myIdx = i
		}
	}
	if myIdx < 0 {
		return // not registered (shutting down)
	}
	changed := false
	for _, topic := range g.topics {
		parts := g.allPartitions(topic)
		want := map[PartitionID]bool{}
		// Contiguous chunks: consumer i owns parts[i*k ... (i+1)*k) with the
		// first (len % members) consumers taking one extra.
		n, m := len(parts), len(members)
		if m > 0 {
			per, extra := n/m, n%m
			start := myIdx*per + min(myIdx, extra)
			count := per
			if myIdx < extra {
				count++
			}
			for i := start; i < start+count && i < n; i++ {
				want[parts[i]] = true
			}
		}
		g.mu.Lock()
		cur := g.owned[topic]
		if cur == nil {
			cur = map[PartitionID]*fetcher{}
			g.owned[topic] = cur
		}
		// stop fetchers for partitions no longer owned
		for p, f := range cur {
			if !want[p] {
				close(f.stop)
				delete(cur, p)
				changed = true
			}
		}
		// start fetchers for newly owned partitions
		for p := range want {
			if _, ok := cur[p]; !ok {
				f := &fetcher{stop: make(chan struct{}), done: make(chan struct{})}
				cur[p] = f
				g.wg.Add(1)
				go g.fetchLoop(topic, p, f)
				changed = true
			}
		}
		g.mu.Unlock()
	}
	if changed {
		g.mu.Lock()
		g.rebalances++
		g.mu.Unlock()
		mGroupRebalances.Inc()
	}
}

func (g *GroupConsumer) offsetPath(topic string, p PartitionID) string {
	return fmt.Sprintf("/consumers/%s/offsets/%s/%s", g.group, topic, p)
}

func (g *GroupConsumer) loadOffset(topic string, p PartitionID) (int64, bool) {
	data, _, err := g.sess.Get(g.offsetPath(topic, p))
	if err != nil {
		return 0, false
	}
	v, err := strconv.ParseInt(string(data), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (g *GroupConsumer) storeOffset(topic string, p PartitionID, offset int64) {
	path := g.offsetPath(topic, p)
	data := []byte(strconv.FormatInt(offset, 10))
	if ok, _ := g.sess.Exists(path); !ok {
		_ = g.sess.CreateAll(path, data)
		return
	}
	_, _ = g.sess.Set(path, data, -1)
}

// fetchLoop consumes one owned partition sequentially, delivering to the
// shared stream and committing offsets.
func (g *GroupConsumer) fetchLoop(topic string, p PartitionID, f *fetcher) {
	defer g.wg.Done()
	defer close(f.done)
	broker := g.brokers[p.Broker]
	if broker == nil {
		return
	}
	sc := NewSimpleConsumer(broker, g.cfg.MaxFetchBytes)
	offset, ok := g.loadOffset(topic, p)
	if !ok {
		var err error
		if g.cfg.FromEarliest {
			offset, err = sc.EarliestOffset(topic, p.Partition)
		} else {
			offset, err = sc.LatestOffset(topic, p.Partition)
		}
		if err != nil {
			return
		}
	}
	lastCommit := time.Now()
	// Consumer lag — the gap between the partition head and our committed
	// position — refreshes at commit cadence so the extra LatestOffset
	// round-trip stays off the per-message path.
	lagGauge := mGroupLag.With(topic + "/" + p.String())
	commit := func() {
		g.storeOffset(topic, p, offset)
		if latest, err := sc.LatestOffset(topic, p.Partition); err == nil {
			if lag := latest - offset; lag >= 0 {
				lagGauge.Set(lag)
			}
		}
		lastCommit = time.Now()
	}
	defer commit()
	for {
		select {
		case <-f.stop:
			return
		case <-g.stop:
			return
		default:
		}
		msgs, err := sc.Consume(topic, p.Partition, offset)
		if errors.Is(err, ErrOffsetOutOfRange) {
			// Retention deleted our position: restart from the earliest.
			offset, err = sc.EarliestOffset(topic, p.Partition)
			if err != nil {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		if len(msgs) == 0 {
			if time.Since(lastCommit) >= g.cfg.CommitInterval {
				commit()
			}
			select {
			case <-f.stop:
				return
			case <-g.stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		for _, m := range msgs {
			select {
			case g.ch <- GroupMsg{Topic: topic, Partition: p, Payload: m.Payload, NextOffset: m.NextOffset}:
				offset = m.NextOffset
			case <-f.stop:
				return
			case <-g.stop:
				return
			}
		}
		if time.Since(lastCommit) >= g.cfg.CommitInterval {
			commit()
		}
	}
}

// Close deregisters the member (triggering a rebalance in the survivors) and
// stops all fetchers.
func (g *GroupConsumer) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stop)
	g.sess.Close() // removes the ephemeral registration
	g.wg.Wait()
}
