package kafka

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datainfra/internal/rpc"
	"datainfra/internal/zk"
)

// Broker stores topic partitions as Logs and serves produce/fetch (§V.A).
// Topics are created on first use with the configured partition count. The
// broker registers itself in zk so consumers discover brokers and partition
// counts (§V.C task 1).
type Broker struct {
	id      int
	dataDir string
	cfg     BrokerConfig

	mu     sync.RWMutex
	topics map[string][]*Log
	closed bool

	// Replication hooks (see ReplicatedBroker): when set, produces route
	// through the ISR layer (append + high-watermark ack) and op 6 serves
	// follower replica fetches.
	produceHandler ProduceHandler
	replicaHandler ReplicaHandler

	zkSess *zk.Session
	ln     net.Listener
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
	stop   chan struct{}
}

// BrokerConfig tunes a broker.
type BrokerConfig struct {
	PartitionsPerTopic int           // default 4
	Log                LogConfig     // per-partition log tuning
	CleanerInterval    time.Duration // retention sweep; default 1m, 0 uses default
}

func (c *BrokerConfig) withDefaults() {
	if c.PartitionsPerTopic == 0 {
		c.PartitionsPerTopic = 4
	}
	if c.CleanerInterval == 0 {
		c.CleanerInterval = time.Minute
	}
}

// NewBroker opens a broker over dataDir, reloading any existing topic logs.
func NewBroker(id int, dataDir string, cfg BrokerConfig) (*Broker, error) {
	cfg.withDefaults()
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	b := &Broker{
		id:      id,
		dataDir: dataDir,
		cfg:     cfg,
		topics:  map[string][]*Log{},
		conns:   map[net.Conn]bool{},
		stop:    make(chan struct{}),
	}
	// Recover topics from disk: dataDir/<topic>/<partition>/
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		if _, err := b.getOrCreateTopic(ent.Name()); err != nil {
			return nil, err
		}
	}
	b.wg.Add(1)
	go b.housekeeping()
	return b, nil
}

// ID returns the broker id.
func (b *Broker) ID() int { return b.id }

// ProduceHandler intercepts produce requests (the ISR layer gates the ack on
// the high watermark instead of the bare append).
type ProduceHandler func(topic string, partition int, set MessageSet) (int64, error)

// ReplicaHandler serves follower replica fetches: raw log bytes from offset
// (uncapped by the high watermark) plus the leader's current high watermark,
// long-polling up to wait at the durable tail. follower identifies the
// fetching replica so the leader can track its position for ISR accounting;
// epoch is the leader epoch the follower fetches under, rejected on mismatch.
type ReplicaHandler func(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (hw int64, chunk []byte, err error)

// SetProduceHandler routes produces through fn; nil restores direct appends.
func (b *Broker) SetProduceHandler(fn ProduceHandler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.produceHandler = fn
}

// SetReplicaHandler enables op 6 (replica fetch) through fn.
func (b *Broker) SetReplicaHandler(fn ReplicaHandler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.replicaHandler = fn
}

// Register announces the broker and its topics in zk (consumers watch these
// paths to trigger rebalances).
func (b *Broker) Register(srv *zk.Server, addr string) error {
	sess := srv.NewSession()
	if err := sess.CreateAll("/brokers/ids", nil); err != nil {
		sess.Close()
		return err
	}
	if _, err := sess.Create(fmt.Sprintf("/brokers/ids/%d", b.id), []byte(addr), zk.FlagEphemeral); err != nil {
		sess.Close()
		return err
	}
	b.mu.Lock()
	b.zkSess = sess
	b.mu.Unlock()
	// Announce existing topics.
	b.mu.RLock()
	names := make([]string, 0, len(b.topics))
	for t := range b.topics {
		names = append(names, t)
	}
	b.mu.RUnlock()
	for _, t := range names {
		if err := b.announceTopic(t); err != nil {
			return err
		}
	}
	return nil
}

func (b *Broker) announceTopic(topic string) error {
	b.mu.RLock()
	sess := b.zkSess
	n := len(b.topics[topic])
	b.mu.RUnlock()
	if sess == nil {
		return nil
	}
	if err := sess.CreateAll("/brokers/topics/"+topic, nil); err != nil {
		return err
	}
	p := fmt.Sprintf("/brokers/topics/%s/%d", topic, b.id)
	if ok, _ := sess.Exists(p); ok {
		_, err := sess.Set(p, []byte(fmt.Sprintf("%d", n)), -1)
		return err
	}
	_, err := sess.Create(p, []byte(fmt.Sprintf("%d", n)), zk.FlagEphemeral)
	return err
}

func (b *Broker) getOrCreateTopic(topic string) ([]*Log, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("kafka: broker closed")
	}
	if logs, ok := b.topics[topic]; ok {
		return logs, nil
	}
	logs := make([]*Log, b.cfg.PartitionsPerTopic)
	for p := range logs {
		dir := filepath.Join(b.dataDir, topic, fmt.Sprintf("%d", p))
		l, err := OpenLog(dir, b.cfg.Log)
		if err != nil {
			return nil, err
		}
		logs[p] = l
	}
	b.topics[topic] = logs
	return logs, nil
}

func (b *Broker) log(topic string, partition int) (*Log, error) {
	logs, err := b.getOrCreateTopic(topic)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(logs) {
		return nil, fmt.Errorf("kafka: topic %q has no partition %d", topic, partition)
	}
	return logs[partition], nil
}

// Produce appends a message set to a partition and returns its base offset.
// New topics announce themselves in zk.
func (b *Broker) Produce(topic string, partition int, set MessageSet) (int64, error) {
	b.mu.RLock()
	_, known := b.topics[topic]
	b.mu.RUnlock()
	l, err := b.log(topic, partition)
	if err != nil {
		return 0, err
	}
	off, err := l.Append(set)
	if err != nil {
		return 0, err
	}
	mProduceRequests.Inc()
	mProduceBytes.Add(int64(set.Len()))
	if !known {
		_ = b.announceTopic(topic)
	}
	return off, nil
}

// Fetch returns up to maxBytes of raw log from (topic, partition) starting
// at offset. Empty means caught up.
func (b *Broker) Fetch(topic string, partition int, offset int64, maxBytes int) ([]byte, error) {
	l, err := b.log(topic, partition)
	if err != nil {
		return nil, err
	}
	chunk, err := l.Read(offset, maxBytes)
	if err == nil {
		mFetchRequests.Inc()
		mFetchBytes.Add(int64(len(chunk)))
	}
	return chunk, err
}

// FetchWait is Fetch with a long poll: when the partition is caught up at
// offset it blocks until new flushed data arrives, wait elapses, or the
// broker shuts down — an empty result then means "still caught up". Consumers
// use it (via BlockingFetcher) to sit at the log tail without sleep-polling.
func (b *Broker) FetchWait(topic string, partition int, offset int64, maxBytes int, wait time.Duration) ([]byte, error) {
	l, err := b.log(topic, partition)
	if err != nil {
		return nil, err
	}
	chunk, err := l.Read(offset, maxBytes)
	if err != nil || len(chunk) > 0 {
		if err == nil {
			mFetchRequests.Inc()
			mFetchBytes.Add(int64(len(chunk)))
		}
		return chunk, err
	}
	if !l.WaitForData(offset, wait, b.stop) {
		mFetchRequests.Inc()
		return nil, nil
	}
	chunk, err = l.Read(offset, maxBytes)
	if err == nil {
		mFetchRequests.Inc()
		mFetchBytes.Add(int64(len(chunk)))
	}
	return chunk, err
}

// Offsets returns the earliest and latest valid offsets of a partition.
func (b *Broker) Offsets(topic string, partition int) (earliest, latest int64, err error) {
	l, err := b.log(topic, partition)
	if err != nil {
		return 0, 0, err
	}
	return l.Earliest(), l.Latest(), nil
}

// Partitions returns the partition count of a topic (creating it if new).
func (b *Broker) Partitions(topic string) (int, error) {
	logs, err := b.getOrCreateTopic(topic)
	if err != nil {
		return 0, err
	}
	return len(logs), nil
}

// Topics lists the broker's topics.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for t := range b.topics {
		out = append(out, t)
	}
	return out
}

// FlushAll forces all partition logs to flush (tests, shutdown).
func (b *Broker) FlushAll() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, logs := range b.topics {
		for _, l := range logs {
			if err := l.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// housekeeping runs time-based flushes and the retention cleaner.
func (b *Broker) housekeeping() {
	defer b.wg.Done()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	lastClean := time.Now()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.mu.RLock()
			var all []*Log
			for _, logs := range b.topics {
				all = append(all, logs...)
			}
			b.mu.RUnlock()
			for _, l := range all {
				_ = l.MaybeFlushByTime()
			}
			if time.Since(lastClean) >= b.cfg.CleanerInterval {
				lastClean = time.Now()
				for _, l := range all {
					_, _ = l.CleanOld(time.Now())
				}
			}
		}
	}
}

// CleanNow runs one retention sweep immediately (tests).
func (b *Broker) CleanNow(now time.Time) int {
	b.mu.RLock()
	var all []*Log
	for _, logs := range b.topics {
		all = append(all, logs...)
	}
	b.mu.RUnlock()
	n := 0
	for _, l := range all {
		r, _ := l.CleanOld(now)
		n += r
	}
	return n
}

// --- TCP transport -----------------------------------------------------------
//
// The listen port speaks the internal/rpc mux only: a connection opens with
// the rpc magic and then carries op|body payloads inside correlation-id
// frames, so many requests share one connection and responses may return out
// of order. Ops:
//   1 produce:    topicLen u16 topic | partition u32 | set bytes  -> i64 offset
//   2 fetch:      topicLen u16 topic | partition u32 | offset i64 | max u32
//                 -> raw chunk (streamed from the segment file)
//   3 offsets:    topicLen u16 topic | partition u32 -> i64 earliest, i64 latest
//   4 partitions: topicLen u16 topic -> u32 count
//   5 fetch-wait: topicLen u16 topic | partition u32 | offset i64 | max u32 |
//                 waitMs u32 -> raw chunk; blocks server-side until data or
//                 waitMs (the long-poll fetch — under the mux it parks one
//                 worker, not the whole connection)
//   6 replica-fetch: topicLen u16 topic | partition u32 | offset i64 |
//                 max u32 | waitMs u32 | followerLen u16 follower
//                 -> hw i64 | raw chunk; the follower pull of ISR
//                 replication — uncapped by the high watermark, long-polling
//                 at the durable tail, and carrying the leader's hw back so
//                 followers advance their own visibility limit

// Broker protocol opcodes.
const (
	brokerOpProduce      = 1
	brokerOpFetch        = 2
	brokerOpOffsets      = 3
	brokerOpPartitions   = 4
	brokerOpFetchWait    = 5
	brokerOpReplicaFetch = 6
)

// maxFetchWait caps how long a fetch-wait request may park a server worker.
const maxFetchWait = 30 * time.Second

// Listen starts serving the broker protocol; returns the bound address.
func (b *Broker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	b.ln = ln
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			b.mu.Lock()
			if b.closed {
				b.mu.Unlock()
				conn.Close()
				return
			}
			b.conns[conn] = true
			b.mu.Unlock()
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				defer func() {
					conn.Close()
					b.mu.Lock()
					delete(b.conns, conn)
					b.mu.Unlock()
				}()
				_ = rpc.ServeConn(conn, b.handle, rpc.ServeOptions{})
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func respErr(err error) rpc.Response {
	return rpc.Response{Payload: append([]byte{1}, err.Error()...)}
}

func respOK(payload []byte) rpc.Response {
	return rpc.Response{Payload: append([]byte{0}, payload...)}
}

// handle serves one op|body request payload. It runs on the mux's
// per-connection worker pool, so it must be — and is — safe for concurrent
// use. The first response byte is the status flag; fetches return the chunk
// as a stream straight from the segment file (the §V.B sendfile-style path).
func (b *Broker) handle(body []byte) rpc.Response {
	if len(body) < 1 {
		return respErr(fmt.Errorf("empty request"))
	}
	op := body[0]
	body = body[1:]
	readTopic := func() (string, []byte, error) {
		if len(body) < 2 {
			return "", nil, fmt.Errorf("short request")
		}
		n := int(binary.BigEndian.Uint16(body))
		if len(body) < 2+n {
			return "", nil, fmt.Errorf("short topic")
		}
		return string(body[2 : 2+n]), body[2+n:], nil
	}
	switch op {
	case brokerOpProduce:
		topic, rest, err := readTopic()
		if err != nil {
			return respErr(err)
		}
		if len(rest) < 4 {
			return respErr(fmt.Errorf("short produce"))
		}
		partition := int(binary.BigEndian.Uint32(rest))
		b.mu.RLock()
		produce := b.produceHandler
		b.mu.RUnlock()
		var off int64
		if produce != nil {
			off, err = produce(topic, partition, MessageSet{buf: rest[4:]})
		} else {
			off, err = b.Produce(topic, partition, MessageSet{buf: rest[4:]})
		}
		if err != nil {
			return respErr(err)
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], uint64(off))
		return respOK(out[:])

	case brokerOpReplicaFetch:
		topic, rest, err := readTopic()
		if err != nil {
			return respErr(err)
		}
		if len(rest) < 26 {
			return respErr(fmt.Errorf("short replica fetch"))
		}
		partition := int(binary.BigEndian.Uint32(rest))
		offset := int64(binary.BigEndian.Uint64(rest[4:12]))
		maxBytes := int(binary.BigEndian.Uint32(rest[12:16]))
		wait := time.Duration(binary.BigEndian.Uint32(rest[16:20])) * time.Millisecond
		if wait > maxFetchWait {
			wait = maxFetchWait
		}
		epoch := int(int32(binary.BigEndian.Uint32(rest[20:24])))
		fn := int(binary.BigEndian.Uint16(rest[24:26]))
		if len(rest) < 26+fn {
			return respErr(fmt.Errorf("short replica fetch follower"))
		}
		follower := string(rest[26 : 26+fn])
		b.mu.RLock()
		replica := b.replicaHandler
		b.mu.RUnlock()
		if replica == nil {
			return respErr(fmt.Errorf("replication not enabled"))
		}
		hw, chunk, err := replica(topic, partition, offset, maxBytes, wait, follower, epoch)
		if err != nil {
			return respErr(err)
		}
		out := make([]byte, 0, 9+len(chunk))
		out = append(out, 0)
		out = binary.BigEndian.AppendUint64(out, uint64(hw))
		out = append(out, chunk...)
		return rpc.Response{Payload: out}

	case brokerOpFetch:
		topic, rest, err := readTopic()
		if err != nil {
			return respErr(err)
		}
		if len(rest) < 16 {
			return respErr(fmt.Errorf("short fetch"))
		}
		partition := int(binary.BigEndian.Uint32(rest))
		offset := int64(binary.BigEndian.Uint64(rest[4:12]))
		maxBytes := int(binary.BigEndian.Uint32(rest[12:16]))
		l, err := b.log(topic, partition)
		if err != nil {
			return respErr(err)
		}
		f, pos, n, err := l.SectionReader(offset, maxBytes)
		if err != nil {
			return respErr(err)
		}
		mFetchRequests.Inc()
		mFetchBytes.Add(n)
		return rpc.Response{Payload: []byte{0}, Stream: io.NewSectionReader(f, pos, n), StreamLen: n}

	case brokerOpFetchWait:
		topic, rest, err := readTopic()
		if err != nil {
			return respErr(err)
		}
		if len(rest) < 20 {
			return respErr(fmt.Errorf("short fetch-wait"))
		}
		partition := int(binary.BigEndian.Uint32(rest))
		offset := int64(binary.BigEndian.Uint64(rest[4:12]))
		maxBytes := int(binary.BigEndian.Uint32(rest[12:16]))
		wait := time.Duration(binary.BigEndian.Uint32(rest[16:20])) * time.Millisecond
		if wait > maxFetchWait {
			wait = maxFetchWait
		}
		chunk, err := b.FetchWait(topic, partition, offset, maxBytes, wait)
		if err != nil {
			return respErr(err)
		}
		return respOK(chunk)

	case brokerOpOffsets:
		topic, rest, err := readTopic()
		if err != nil {
			return respErr(err)
		}
		if len(rest) < 4 {
			return respErr(fmt.Errorf("short offsets"))
		}
		partition := int(binary.BigEndian.Uint32(rest))
		earliest, latest, err := b.Offsets(topic, partition)
		if err != nil {
			return respErr(err)
		}
		var out [16]byte
		binary.BigEndian.PutUint64(out[0:8], uint64(earliest))
		binary.BigEndian.PutUint64(out[8:16], uint64(latest))
		return respOK(out[:])

	case brokerOpPartitions:
		topic, _, err := readTopic()
		if err != nil {
			return respErr(err)
		}
		n, err := b.Partitions(topic)
		if err != nil {
			return respErr(err)
		}
		out, _ := json.Marshal(n)
		return respOK(out)

	default:
		return respErr(fmt.Errorf("unknown op %d", op))
	}
}

// Close stops serving and closes all logs.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln := b.ln
	sess := b.zkSess
	conns := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	close(b.stop)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	b.wg.Wait()
	if sess != nil {
		sess.Close()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var firstErr error
	for _, logs := range b.topics {
		for _, l := range logs {
			if err := l.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
