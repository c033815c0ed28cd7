package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datainfra/internal/cache"
	"datainfra/internal/kafka"
)

const (
	actTopic      = "activity"
	actReplicas   = 3
	actMinISR     = 2
	actPartitions = 2
	actMinEvent   = 100
	actMaxEvent   = 200
	actReadFrac   = 0.4 // rewind reads of an earlier acked event
	actTimeout    = 2 * time.Second
)

func newActivity(e *env) site { return &actSite{env: e} }

// actSite is a 3-broker ISR-replicated Kafka cluster with one tailing
// consumer per partition.
type actSite struct {
	*env
	kc        *kafka.ReplicatedCluster
	client    *kafka.StaticClient
	pool      []byte
	clients   []*actSender
	consumers []*tailer
	isrStart  []int
}

// actSender produces member events and rewinds to its own earlier ones.
type actSender struct {
	id     int
	mix    *rand.Rand
	seq    int64
	broker *timedBroker
	rewind *kafka.SimpleConsumer
	acked  []actWrite
}

type actWrite struct {
	part     int
	offset   int64
	seq      int64
	open     bool
	due, ack int64 // unix ns; due is set in the open-loop phase only
}

// tailer is one partition's tailing consumer.
type tailer struct {
	part   int
	stream *kafka.Stream
	done   sync.WaitGroup
	err    atomic.Value

	mu  sync.Mutex
	got []actRecv
}

type actRecv struct {
	offset  int64
	payload []byte
	at      int64 // unix ns
}

// event renders the deterministic payload of (sender, seq).
func (a *actSite) event(sender int, seq int64) []byte {
	size := actMinEvent + int((uint64(seq)*2654435761+uint64(sender))%uint64(actMaxEvent-actMinEvent+1))
	off := int((uint64(seq)*40503 + uint64(sender)*97) % uint64(len(a.pool)-actMaxEvent))
	p := append(make([]byte, 0, size+24), 's')
	p = strconv.AppendInt(p, int64(sender), 10)
	p = append(p, '-')
	p = strconv.AppendInt(p, seq, 10)
	p = append(p, '|')
	return append(p, a.pool[off:off+size]...)
}

func (a *actSite) params() map[string]any {
	return map[string]any{
		"brokers": actReplicas, "min_isr": actMinISR, "partitions": actPartitions,
		"flush_messages": 64, "flush_interval_ms": 5, "read_fraction": actReadFrac,
		"event_bytes_min": actMinEvent, "event_bytes_max": actMaxEvent,
	}
}

func (a *actSite) setup() error {
	r := rand.New(rand.NewSource(a.seed))
	a.pool = make([]byte, 64<<10)
	for i := range a.pool {
		a.pool[i] = byte('a' + r.Intn(26))
	}
	dirs := make([]string, actReplicas)
	for i := range dirs {
		dirs[i] = filepath.Join(a.dir, fmt.Sprintf("broker-%d", i))
	}
	var err error
	a.kc, err = kafka.NewReplicatedCluster(dirs, kafka.BrokerConfig{
		PartitionsPerTopic: actPartitions,
		Log:                kafka.LogConfig{SegmentBytes: 64 << 20, FlushMessages: 64, FlushInterval: 5 * time.Millisecond, Retention: 7 * 24 * time.Hour},
	}, kafka.ReplicatedConfig{Cluster: "kafka", Replicas: actReplicas, MinISR: actMinISR})
	if err != nil {
		return err
	}
	var addrs []string
	for _, rb := range a.kc.Brokers() {
		addr, err := rb.Broker().Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	if err := a.kc.AddTopic(actTopic); err != nil {
		return err
	}
	if err := a.kc.WaitForISR(actTopic, actReplicas, 30*time.Second); err != nil {
		return err
	}
	a.isrStart = a.isrSizes()
	a.client = kafka.NewStaticClient(addrs, actTimeout)
	for p := 0; p < actPartitions; p++ {
		_, latest, err := a.client.Offsets(actTopic, p)
		if err != nil {
			return err
		}
		t := &tailer{part: p}
		t.stream = kafka.NewSimpleConsumer(&timedBroker{StaticClient: a.client, rec: a.rec}, 0).StreamFrom(actTopic, p, latest)
		t.done.Add(1)
		go t.run()
		a.consumers = append(a.consumers, t)
	}
	for s := 0; s < a.senders; s++ {
		snd := &actSender{id: s, mix: rand.New(rand.NewSource(a.seed*31 + int64(s)))}
		snd.broker = &timedBroker{StaticClient: a.client, rec: a.rec}
		snd.rewind = kafka.NewSimpleConsumer(snd.broker, 512)
		a.clients = append(a.clients, snd)
	}
	return nil
}

func (a *actSite) isrSizes() []int {
	out := make([]int, actPartitions)
	for p := range out {
		out[p] = len(a.kc.ISROf(actTopic, p))
	}
	return out
}

func (t *tailer) run() {
	defer t.done.Done()
	for {
		off := t.stream.Offset()
		m, err := t.stream.Next()
		if err != nil {
			if !errors.Is(err, kafka.ErrStreamClosed) {
				t.err.Store(err)
			}
			return
		}
		now := time.Now().UnixNano()
		t.mu.Lock()
		t.got = append(t.got, actRecv{offset: off, payload: m.Payload, at: now})
		t.mu.Unlock()
	}
}

func (t *tailer) received() []actRecv {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]actRecv(nil), t.got...)
}

func (a *actSite) do(o *op) (opKind, error) {
	s := a.clients[o.sender]
	s.broker.req.Store(o.req)
	if len(s.acked) > 0 && s.mix.Float64() < actReadFrac {
		w := s.acked[s.mix.Intn(len(s.acked))]
		msgs, err := s.rewind.Consume(actTopic, w.part, w.offset)
		if err != nil {
			return opRead, err
		}
		if len(msgs) == 0 || !bytes.Equal(msgs[0].Payload, a.event(s.id, w.seq)) {
			return opRead, fmt.Errorf("rewind to %d/%d: event s%d-%d not found", w.part, w.offset, s.id, w.seq)
		}
		return opRead, nil
	}
	s.seq++
	part := int(s.seq+int64(s.id)) % actPartitions
	off, err := s.broker.Produce(actTopic, part, kafka.NewMessageSet(a.event(s.id, s.seq)))
	if err != nil {
		return opWrite, err
	}
	w := actWrite{part: part, offset: off, seq: s.seq, open: o.phase == phaseOpen, ack: time.Now().UnixNano()}
	if w.open {
		w.due = o.due.UnixNano()
	}
	s.acked = append(s.acked, w)
	return opWrite, nil
}

func (a *actSite) settle(timeout time.Duration) error {
	want := make([]int, actPartitions)
	for _, s := range a.clients {
		for _, w := range s.acked {
			want[w.part]++
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		for p, t := range a.consumers {
			t.mu.Lock()
			behind += max(0, want[p]-len(t.got))
			t.mu.Unlock()
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("consumers still %d events behind after %v", behind, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verify requires every acked produce to have been consumed exactly once, in
// offset order, at its acked offset and with its payload.
func (a *actSite) verify(r *result) {
	for p, t := range a.consumers {
		if err, _ := t.err.Load().(error); err != nil {
			r.fail("kafka consumer %d: %v", p, err)
		}
		got := t.received()
		at := make(map[int64]actRecv, len(got))
		for i, m := range got {
			if i > 0 && m.offset <= got[i-1].offset {
				r.fail("kafka partition %d: offset %d consumed after %d", p, m.offset, got[i-1].offset)
			}
			at[m.offset] = m
		}
		n := 0
		for _, s := range a.clients {
			for _, w := range s.acked {
				if w.part != p {
					continue
				}
				n++
				m, ok := at[w.offset]
				switch {
				case !ok:
					r.fail("kafka partition %d: acked offset %d never consumed", p, w.offset)
				case !bytes.Equal(m.payload, a.event(s.id, w.seq)):
					r.fail("kafka partition %d: offset %d holds another payload than s%d-%d", p, w.offset, s.id, w.seq)
				}
			}
		}
		if n != len(got) {
			r.fail("kafka partition %d: consumed %d events, %d acked", p, len(got), n)
		}
		r.verified(n)
	}
}

func (a *actSite) check(r *result, _, _ window) {
	end := a.isrSizes()
	for p := range end {
		if a.isrStart[p] != actReplicas || end[p] != actReplicas {
			r.fail("precondition: partition %d ISR %d at start and %d at end, want %d", p, a.isrStart[p], end[p], actReplicas)
		}
	}
}

func (a *actSite) deliveries() (delivery []timed, propagation []time.Duration, name string) {
	at := make([]map[int64]int64, actPartitions)
	for p, t := range a.consumers {
		at[p] = map[int64]int64{}
		for _, m := range t.received() {
			at[p][m.offset] = m.at
		}
	}
	for _, s := range a.clients {
		for _, w := range s.acked {
			if recv, ok := at[w.part][w.offset]; ok && w.open {
				delivery = append(delivery, timed{w.due, time.Duration(recv - w.due)})
				propagation = append(propagation, time.Duration(recv-w.ack))
			}
		}
	}
	return delivery, propagation, "kafka.ack_to_consume"
}

func (a *actSite) counters() map[string]float64 { return nil }

func (a *actSite) caches() []cache.Stats { return nil }

func (a *actSite) close() {
	for _, t := range a.consumers {
		t.stream.Close()
		t.done.Wait()
	}
	if a.client != nil {
		a.client.Close()
	}
	if a.kc != nil {
		a.kc.Close()
	}
}

// timedBroker records produce and fetch spans around the StaticClient.
type timedBroker struct {
	*kafka.StaticClient
	rec *recorder
	req atomic.Int64
}

func (b *timedBroker) Produce(topic string, partition int, set kafka.MessageSet) (int64, error) {
	id, start := b.rec.begin()
	off, err := b.StaticClient.Produce(topic, partition, set)
	b.rec.end(id, start, 0, b.req.Load(), spProduce, int64(set.Len()), err)
	return off, err
}

func (b *timedBroker) Fetch(topic string, partition int, offset int64, maxBytes int) ([]byte, error) {
	id, start := b.rec.begin()
	chunk, err := b.StaticClient.Fetch(topic, partition, offset, maxBytes)
	b.rec.end(id, start, 0, b.req.Load(), spFetch, int64(len(chunk)), err)
	return chunk, err
}

func (b *timedBroker) FetchWait(topic string, partition int, offset int64, maxBytes int, wait time.Duration) ([]byte, error) {
	id, start := b.rec.begin()
	chunk, err := b.StaticClient.FetchWait(topic, partition, offset, maxBytes, wait)
	b.rec.end(id, start, 0, b.req.Load(), spFetch, int64(len(chunk)), err)
	return chunk, err
}
