package kafka

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"datainfra/internal/zk"
)

func TestMessageSetEncodeDecode(t *testing.T) {
	set := NewMessageSet([]byte("one"), []byte("two"), []byte("three"))
	msgs, err := Decode(set.Bytes(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("decoded %d messages", len(msgs))
	}
	if string(msgs[0].Payload) != "one" || string(msgs[2].Payload) != "three" {
		t.Fatalf("payloads: %q %q %q", msgs[0].Payload, msgs[1].Payload, msgs[2].Payload)
	}
	// offsets are byte positions: increasing but not consecutive (§V.B)
	if msgs[0].NextOffset <= 100 || msgs[1].NextOffset <= msgs[0].NextOffset {
		t.Fatalf("offsets not increasing: %d %d", msgs[0].NextOffset, msgs[1].NextOffset)
	}
	want := int64(100 + set.Len())
	if msgs[2].NextOffset != want {
		t.Fatalf("final NextOffset = %d, want %d", msgs[2].NextOffset, want)
	}
}

func TestDecodePartialTail(t *testing.T) {
	set := NewMessageSet([]byte("complete"), []byte("torn"))
	data := set.Bytes()
	msgs, err := Decode(data[:len(data)-3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Payload) != "complete" {
		t.Fatalf("partial decode = %v", msgs)
	}
}

func TestDecodeCorruptCRC(t *testing.T) {
	set := NewMessageSet([]byte("payload"))
	data := set.Bytes()
	data[len(data)-1] ^= 0xFF
	if _, err := Decode(data, 0); err == nil {
		t.Fatal("corrupt crc accepted")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	payloads := [][]byte{}
	var set MessageSet
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf(`{"event":"page_view","member":%d,"page":"/in/profile"}`, i))
		payloads = append(payloads, p)
		set.Append(NewMessage(p))
	}
	compressed, err := set.Compress()
	if err != nil {
		t.Fatal(err)
	}
	if compressed.Len() >= set.Len() {
		t.Fatalf("compression grew the set: %d -> %d", set.Len(), compressed.Len())
	}
	msgs, err := Decode(compressed.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 50 {
		t.Fatalf("decoded %d inner messages", len(msgs))
	}
	for i, m := range msgs {
		if !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d mismatch", i)
		}
		// every inner message resumes after the wrapper
		if m.NextOffset != int64(compressed.Len()) {
			t.Fatalf("inner NextOffset = %d, want %d", m.NextOffset, compressed.Len())
		}
	}
}

func TestE10CompressionRatio(t *testing.T) {
	// §V.B: "we save about 2/3 of the network bandwidth with compression".
	var set MessageSet
	for i := 0; i < 200; i++ {
		set.Append(NewMessage([]byte(fmt.Sprintf(
			`{"timestamp":%d,"server":"app-%02d.prod","event":"page_view","member":%d,"referrer":"https://www.linkedin.com/feed/","agent":"Mozilla/5.0"}`,
			1700000000000+int64(i), i%20, 100000+i*7))))
	}
	compressed, err := set.Compress()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(compressed.Len()) / float64(set.Len())
	if ratio > 0.45 {
		t.Fatalf("compression ratio %.2f; paper reports ~1/3 of original (save 2/3)", ratio)
	}
}

func TestLogAppendRead(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	off1, err := l.Append(NewMessageSet([]byte("a")))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 {
		t.Fatalf("first offset = %d", off1)
	}
	off2, _ := l.Append(NewMessageSet([]byte("bb")))
	if off2 <= off1 {
		t.Fatalf("offsets not increasing: %d %d", off1, off2)
	}
	chunk, err := l.Read(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := Decode(chunk, 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("decode = (%d, %v)", len(msgs), err)
	}
	// fetch from mid-log
	chunk, _ = l.Read(off2, 1<<20)
	msgs, _ = Decode(chunk, off2)
	if len(msgs) != 1 || string(msgs[0].Payload) != "bb" {
		t.Fatalf("mid-log read = %v", msgs)
	}
	// caught up
	chunk, err = l.Read(l.Latest(), 1<<20)
	if err != nil || len(chunk) != 0 {
		t.Fatalf("caught-up read = (%d, %v)", len(chunk), err)
	}
	// out of range
	if _, err := l.Read(l.Latest()+1, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("past-end read err = %v", err)
	}
}

func TestLogSegmentRoll(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(NewMessageSet(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("only %d segments after 1000 bytes with 256-byte roll", l.Segments())
	}
	// reads spanning segments still deliver every message via re-fetch
	var got int
	off := l.Earliest()
	for off < l.Latest() {
		chunk, err := l.Read(off, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		msgs, err := Decode(chunk, off)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			t.Fatal("no complete message in chunk")
		}
		got += len(msgs)
		off = msgs[len(msgs)-1].NextOffset
	}
	if got != 10 {
		t.Fatalf("read %d messages across segments", got)
	}
}

func TestLogFlushPolicyHidesUnflushed(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{FlushMessages: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(NewMessageSet([]byte("m1")))
	if l.Latest() != 0 {
		t.Fatalf("unflushed data visible: latest=%d", l.Latest())
	}
	l.Append(NewMessageSet([]byte("m2")))
	l.Append(NewMessageSet([]byte("m3"))) // third append triggers flush
	if l.Latest() == 0 {
		t.Fatal("flush did not expose messages")
	}
	chunk, _ := l.Read(0, 1<<20)
	msgs, _ := Decode(chunk, 0)
	if len(msgs) != 3 {
		t.Fatalf("visible messages = %d", len(msgs))
	}
}

func TestLogRecoveryTruncatesTornWrite(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(NewMessageSet([]byte("good")))
	l.Close()

	// simulate a torn write on the active segment
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 9, 9})
	f.Close()

	re, err := OpenLog(dir, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	chunk, err := re.Read(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := Decode(chunk, 0)
	if err != nil || len(msgs) != 1 || string(msgs[0].Payload) != "good" {
		t.Fatalf("recovery = (%v, %v)", msgs, err)
	}
	// appends continue cleanly after truncation
	if _, err := re.Append(NewMessageSet([]byte("after"))); err != nil {
		t.Fatal(err)
	}
}

func TestLogRetentionDeletesOldSegments(t *testing.T) {
	l, err := OpenLog(t.TempDir(), LogConfig{SegmentBytes: 128, Retention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 64)
	for i := 0; i < 10; i++ {
		l.Append(NewMessageSet(payload))
	}
	before := l.Segments()
	if before < 3 {
		t.Fatalf("need multiple segments, have %d", before)
	}
	// nothing is old yet
	n, _ := l.CleanOld(time.Now())
	if n != 0 {
		t.Fatalf("cleaner deleted %d fresh segments", n)
	}
	// two hours later everything but the active segment expires
	n, err = l.CleanOld(time.Now().Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if n != before-1 {
		t.Fatalf("cleaned %d, want %d", n, before-1)
	}
	if l.Segments() != 1 {
		t.Fatalf("%d segments remain", l.Segments())
	}
	// reading an expired offset now fails; earliest survives
	if _, err := l.Read(0, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("expired offset err = %v", err)
	}
	if _, err := l.Read(l.Earliest(), 10); err != nil {
		t.Fatalf("earliest read: %v", err)
	}
}

func newTestBroker(t testing.TB) *Broker {
	t.Helper()
	b, err := NewBroker(0, t.TempDir(), BrokerConfig{PartitionsPerTopic: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestBrokerProduceFetch(t *testing.T) {
	b := newTestBroker(t)
	off, err := b.Produce("events", 0, NewMessageSet([]byte("hello")))
	if err != nil || off != 0 {
		t.Fatalf("Produce = (%d, %v)", off, err)
	}
	chunk, err := b.Fetch("events", 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	msgs, _ := Decode(chunk, 0)
	if len(msgs) != 1 || string(msgs[0].Payload) != "hello" {
		t.Fatalf("fetch = %v", msgs)
	}
	if _, err := b.Fetch("events", 9, 0, 10); err == nil {
		t.Fatal("bad partition accepted")
	}
}

func TestBrokerPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBroker(0, dir, BrokerConfig{PartitionsPerTopic: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := b.Produce("t", i%2, NewMessageSet([]byte(fmt.Sprintf("m%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	b2, err := NewBroker(0, dir, BrokerConfig{PartitionsPerTopic: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	total := 0
	for p := 0; p < 2; p++ {
		earliest, latest, err := b2.Offsets("t", p)
		if err != nil {
			t.Fatal(err)
		}
		for off := earliest; off < latest; {
			chunk, _ := b2.Fetch("t", p, off, 1<<20)
			msgs, _ := Decode(chunk, off)
			if len(msgs) == 0 {
				break
			}
			total += len(msgs)
			off = msgs[len(msgs)-1].NextOffset
		}
	}
	if total != 20 {
		t.Fatalf("recovered %d messages", total)
	}
}

func TestProducerBatchingAndKeyedPartitioning(t *testing.T) {
	b := newTestBroker(t)
	p := NewProducer(b, ProducerConfig{BatchSize: 10})
	defer p.Close()
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("member-%d", i%4))
		if err := p.Send("activity", key, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Sent() != 40 {
		t.Fatalf("Sent = %d", p.Sent())
	}
	// all messages for one key land in one partition
	sc := NewSimpleConsumer(b, 1<<20)
	counts := map[int]int{}
	for part := 0; part < 2; part++ {
		off := int64(0)
		for {
			msgs, err := sc.Consume("activity", part, off)
			if err != nil || len(msgs) == 0 {
				break
			}
			counts[part] += len(msgs)
			off = msgs[len(msgs)-1].NextOffset
		}
	}
	if counts[0]+counts[1] != 40 {
		t.Fatalf("consumed %d+%d messages", counts[0], counts[1])
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("keyed partitioning put everything in one partition: %v", counts)
	}
}

func TestProducerCompressionOnWire(t *testing.T) {
	b := newTestBroker(t)
	plain := NewProducer(b, ProducerConfig{BatchSize: 100})
	gz := NewProducer(b, ProducerConfig{BatchSize: 100, Compression: true})
	defer plain.Close()
	defer gz.Close()
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf(`{"event":"click","member":%d,"page":"/feed","ts":%d}`, i, i*1000))
		plain.SendTo("plain", 0, payload)
		gz.SendTo("gzip", 0, payload)
	}
	plain.Flush()
	gz.Flush()
	if gz.BytesOnWire() >= plain.BytesOnWire()/2 {
		t.Fatalf("compression saved too little: %d vs %d bytes", gz.BytesOnWire(), plain.BytesOnWire())
	}
	// compressed pipeline still delivers every message
	sc := NewSimpleConsumer(b, 1<<20)
	msgs, err := sc.Consume("gzip", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 100 {
		t.Fatalf("consumed %d of 100 compressed messages", len(msgs))
	}
}

func TestStreamBlocksUntilPublish(t *testing.T) {
	b := newTestBroker(t)
	sc := NewSimpleConsumer(b, 1<<20)
	st := sc.StreamFrom("live", 0, 0)
	defer st.Close()
	got := make(chan string, 1)
	go func() {
		m, err := st.Next()
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(m.Payload)
	}()
	select {
	case v := <-got:
		t.Fatalf("Next returned %q before publish", v)
	case <-time.After(30 * time.Millisecond):
	}
	b.Produce("live", 0, NewMessageSet([]byte("now")))
	select {
	case v := <-got:
		if v != "now" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream never unblocked")
	}
}

func TestConsumerRewind(t *testing.T) {
	b := newTestBroker(t)
	for i := 0; i < 5; i++ {
		b.Produce("rw", 0, NewMessageSet([]byte(fmt.Sprintf("m%d", i))))
	}
	sc := NewSimpleConsumer(b, 1<<20)
	msgs, _ := sc.Consume("rw", 0, 0)
	if len(msgs) != 5 {
		t.Fatalf("first pass = %d", len(msgs))
	}
	// deliberately rewind to an old offset and re-consume (§V.B)
	again, err := sc.Consume("rw", 0, 0)
	if err != nil || len(again) != 5 {
		t.Fatalf("rewind = (%d, %v)", len(again), err)
	}
}

func TestRemoteBrokerOverTCP(t *testing.T) {
	b := newTestBroker(t)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rb := DialBroker(addr, time.Second)
	defer rb.Close()

	n, err := rb.Partitions("remote")
	if err != nil || n != 2 {
		t.Fatalf("Partitions = (%d, %v)", n, err)
	}
	off, err := rb.Produce("remote", 1, NewMessageSet([]byte("over-tcp")))
	if err != nil || off != 0 {
		t.Fatalf("Produce = (%d, %v)", off, err)
	}
	chunk, err := rb.Fetch("remote", 1, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	msgs, _ := Decode(chunk, 0)
	if len(msgs) != 1 || string(msgs[0].Payload) != "over-tcp" {
		t.Fatalf("fetch = %v", msgs)
	}
	earliest, latest, err := rb.Offsets("remote", 1)
	if err != nil || earliest != 0 || latest == 0 {
		t.Fatalf("Offsets = (%d, %d, %v)", earliest, latest, err)
	}
	// errors cross the wire
	if _, err := rb.Fetch("remote", 1, latest+100, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("remote out-of-range err = %v", err)
	}
}

func BenchmarkLogAppend(b *testing.B) {
	l, err := OpenLog(b.TempDir(), LogConfig{FlushMessages: 1000})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	set := NewMessageSet(make([]byte, 200))
	b.SetBytes(int64(set.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProduceConsume(b *testing.B) {
	br, err := NewBroker(0, b.TempDir(), BrokerConfig{
		PartitionsPerTopic: 1,
		Log:                LogConfig{FlushMessages: 500},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	p := NewProducer(br, ProducerConfig{BatchSize: 200})
	defer p.Close()
	payload := make([]byte, 200)
	b.SetBytes(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SendTo("bench", 0, payload); err != nil {
			b.Fatal(err)
		}
	}
	p.Flush()
	br.FlushAll()
	b.StopTimer()
}

// countingBroker wraps an in-process broker and counts fetch-path calls. It
// implements BrokerClient only — no FetchWait — so streams over it take the
// jittered-backoff fallback at the tail.
type countingBroker struct {
	b          *Broker
	fetches    atomic.Int64
	fetchWaits atomic.Int64
}

func (c *countingBroker) Produce(topic string, partition int, set MessageSet) (int64, error) {
	return c.b.Produce(topic, partition, set)
}

func (c *countingBroker) Fetch(topic string, partition int, offset int64, maxBytes int) ([]byte, error) {
	c.fetches.Add(1)
	return c.b.Fetch(topic, partition, offset, maxBytes)
}

func (c *countingBroker) Offsets(topic string, partition int) (int64, int64, error) {
	return c.b.Offsets(topic, partition)
}

func (c *countingBroker) Partitions(topic string) (int, error) {
	return c.b.Partitions(topic)
}

// countingBlockingBroker additionally implements BlockingFetcher, steering
// streams onto the long-poll path.
type countingBlockingBroker struct {
	countingBroker
}

func (c *countingBlockingBroker) FetchWait(topic string, partition int, offset int64, maxBytes int, wait time.Duration) ([]byte, error) {
	c.fetchWaits.Add(1)
	return c.b.FetchWait(topic, partition, offset, maxBytes, wait)
}

// TestStreamTailLongPollNoBusySpin: a stream parked at the tail of an idle
// partition must issue only a handful of long-poll fetches (each parks
// server-side for maxWait), not a fixed-interval poll, and must still wake
// promptly when a message is finally produced.
func TestStreamTailLongPollNoBusySpin(t *testing.T) {
	cb := &countingBlockingBroker{countingBroker{b: newTestBroker(t)}}
	sc := NewSimpleConsumer(cb, 1<<20)
	st := sc.StreamFrom("idle", 0, 0)
	defer st.Close()

	got := make(chan string, 1)
	go func() {
		m, err := st.Next()
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(m.Payload)
	}()

	idle := 500 * time.Millisecond
	select {
	case v := <-got:
		t.Fatalf("Next returned %q on an idle partition", v)
	case <-time.After(idle):
	}
	// The old implementation polled every 2ms: ~250 fetches in this window.
	// Long-polling parks 250ms per call, so a parked stream issues ~2.
	if n := cb.fetchWaits.Load(); n > 8 {
		t.Fatalf("%d long-poll fetches in %v — stream is busy-spinning", n, idle)
	}
	if n := cb.fetches.Load(); n > 2 {
		t.Fatalf("%d plain fetches on the long-poll path", n)
	}

	start := time.Now()
	if _, err := cb.b.Produce("idle", 0, NewMessageSet([]byte("wake"))); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked stream never woke after produce")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("wake took %v — long poll is not watching the flush point", d)
	}
	t.Logf("idle %v cost %d long-polls; wake latency %v", idle, cb.fetchWaits.Load(), time.Since(start))
}

// TestStreamTailBackoffNoBusySpin: against a broker with no long-poll
// support, the tail fallback must back off (jittered, doubling to a cap)
// rather than poll at a fixed 2ms — an idle consumer issues an order of
// magnitude fewer fetches than the old busy-poll.
func TestStreamTailBackoffNoBusySpin(t *testing.T) {
	cb := &countingBroker{b: newTestBroker(t)}
	sc := NewSimpleConsumer(cb, 1<<20)
	st := sc.StreamFrom("idle", 0, 0)
	defer st.Close()

	got := make(chan string, 1)
	go func() {
		m, err := st.Next()
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(m.Payload)
	}()

	idle := 400 * time.Millisecond
	select {
	case v := <-got:
		t.Fatalf("Next returned %q on an idle partition", v)
	case <-time.After(idle):
	}
	// Fixed 2ms polling would issue ~200 fetches here; doubling backoff
	// (2,4,8,...,50ms cap, plus jitter) issues roughly a dozen.
	if n := cb.fetches.Load(); n > 40 {
		t.Fatalf("%d fetches in %v — tail fallback is busy-spinning", n, idle)
	}
	if _, err := cb.b.Produce("idle", 0, NewMessageSet([]byte("wake"))); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backoff stream never woke after produce")
	}
	t.Logf("idle %v cost %d fetches on the backoff fallback", idle, cb.fetches.Load())
}

func TestBrokerRegistersInZK(t *testing.T) {
	srv := newTestBroker(t)
	coord := zk.NewServer()
	if err := srv.Register(coord, "127.0.0.1:9092"); err != nil {
		t.Fatal(err)
	}
	sess := coord.NewSession()
	defer sess.Close()
	data, _, err := sess.Get("/brokers/ids/0")
	if err != nil || string(data) != "127.0.0.1:9092" {
		t.Fatalf("broker registration = (%q, %v)", data, err)
	}
	// producing to a topic announces it
	if _, err := srv.Produce("announced", 0, NewMessageSet([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if data, _, err := sess.Get("/brokers/topics/announced/0"); err == nil && string(data) == "2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("topic never announced in zk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// closing the broker removes the ephemeral
	srv.Close()
	if ok, _ := sess.Exists("/brokers/ids/0"); ok {
		t.Fatal("broker registration survived close")
	}
}
