package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datainfra/internal/cache"
	"datainfra/internal/databus"
	"datainfra/internal/espresso"
	"datainfra/internal/schema"
	"datainfra/internal/workload"
)

const (
	docNodes      = 3
	docPartitions = 8
	docReplicas   = 2
	docKeys       = 4000 // albums, 20 per artist
	docPerArtist  = 20
	docCacheBytes = 1 << 20
	docReadFrac   = 0.5
	docTimeout    = 2 * time.Second
	reqHeader     = "X-Sitebench-Req"
)

// docFilterParts is the filtered subscriber's partition set.
var docFilterParts = []int{0, 1, 2, 3}

func newDocCDC(e *env) site { return &docSite{env: e} }

// musicDatabase is the Music database as espresso-server builds it.
func musicDatabase() (*espresso.Database, error) {
	db, err := espresso.NewDatabase(
		espresso.DatabaseSchema{Name: "Music", NumPartitions: docPartitions, Replicas: docReplicas},
		[]*espresso.TableSchema{
			{Name: "Artist", KeyParts: []string{"artist"}},
			{Name: "Album", KeyParts: []string{"artist", "album"}},
			{Name: "Song", KeyParts: []string{"artist", "album", "song"}},
		})
	if err != nil {
		return nil, err
	}
	schemas := map[string]string{
		"Artist": `{"name":"Artist","fields":[
			{"name":"name","type":"string"},
			{"name":"genre","type":"string","index":"exact"}]}`,
		"Album": `{"name":"Album","fields":[
			{"name":"artist","type":"string","index":"exact"},
			{"name":"title","type":"string"},
			{"name":"year","type":"long"}]}`,
		"Song": `{"name":"Song","fields":[
			{"name":"title","type":"string"},
			{"name":"lyrics","type":"string","index":"text"},
			{"name":"durationSec","type":"long"}]}`,
	}
	for table, s := range schemas {
		if _, err := db.SetDocumentSchema(table, schema.MustParse(s)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// docSite is an Espresso cluster served over HTTP, with the cluster's relay
// also served over the Databus binary transport to two subscribers.
type docSite struct {
	*env
	c       *espresso.Cluster
	srv     *http.Server
	base    string
	from    int64 // subscribers start after this SCN (the preload)
	clients []*docSender
	subs    []*subscriber

	lagSum, lagSamples atomic.Int64
	stop               chan struct{}
	sampler            sync.WaitGroup
}

// docSender owns the albums whose ids are ≡ its index (mod senders).
type docSender struct {
	id     int
	client *espresso.HTTPClient
	mix    *rand.Rand
	read   func() int
	write  func() int
	seqs   []int64
	req    atomic.Int64
	acked  []docWrite // every acked write since the subscribers started
}

type docWrite struct {
	etag     string
	open     bool
	due, ack int64 // unix ns; due is set in the open-loop phase only
}

func docParts(id int) []string {
	return []string{fmt.Sprintf("artist-%03d", id/docPerArtist), fmt.Sprintf("album-%05d", id)}
}

func albumDoc(id int, seq int64) map[string]any {
	p := docParts(id)
	return map[string]any{"artist": p[0], "title": strconv.FormatInt(seq, 10) + "|" + p[1], "year": 1990 + seq%30}
}

// checkDoc parses a read document and checks it against its sequence.
func checkDoc(id int, d *espresso.ClientDoc) (int64, error) {
	p := docParts(id)
	title, _ := d.Doc["title"].(string)
	i := strings.IndexByte(title, '|')
	if d.Doc["artist"] != p[0] || i < 0 || title[i+1:] != p[1] {
		return 0, fmt.Errorf("album %d: wrong document %v", id, d.Doc)
	}
	seq, err := strconv.ParseInt(title[:i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("album %d: malformed title %q", id, title)
	}
	if year, ok := d.Doc["year"].(float64); !ok || int64(year) != 1990+seq%30 {
		return 0, fmt.Errorf("album %d: year %v does not match sequence %d", id, d.Doc["year"], seq)
	}
	return seq, nil
}

func (d *docSite) params() map[string]any {
	return map[string]any{
		"nodes": docNodes, "partitions": docPartitions, "replicas": docReplicas,
		"keys": docKeys, "read_fraction": docReadFrac, "key_distribution": "zipfian-0.99",
		"doc_cache_bytes_per_node": docCacheBytes, "subscribers": 2, "filtered_partitions": docFilterParts,
	}
}

func (d *docSite) setup() error {
	db, err := musicDatabase()
	if err != nil {
		return err
	}
	if d.c, err = espresso.NewCluster(db); err != nil {
		return err
	}
	d.c.EnableDocCache(docCacheBytes)
	for i := 0; i < docNodes; i++ {
		if _, err := d.c.AddNode(fmt.Sprintf("node-%d", i)); err != nil {
			return err
		}
	}
	if err := d.c.WaitForMasters(30 * time.Second); err != nil {
		return err
	}
	for id := 0; id < docKeys; id++ {
		node, err := d.c.Route(docParts(id)[0])
		if err != nil {
			return err
		}
		if _, err := node.Put(espresso.DocKey{Table: "Album", Parts: docParts(id)}, albumDoc(id, 1), ""); err != nil {
			return err
		}
	}
	d.from = d.c.Binlog.LastSCN()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.Handle("/databus/", http.StripPrefix("/databus", &timedHandler{next: &databus.Handler{Relay: d.c.Relay}, rec: d.rec}))
	mux.Handle("/", &timedHandler{next: espresso.NewHandler(d.c), rec: d.rec, espresso: true})
	d.srv = &http.Server{Handler: mux}
	go d.srv.Serve(ln)

	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	for _, f := range []*databus.Filter{nil, {Partitions: docFilterParts}} {
		sub := &subscriber{filter: f}
		reader := &pollReader{r: &databus.HTTPReader{BaseURL: d.base + "/databus", Client: &http.Client{Transport: transport, Timeout: docTimeout}}, rec: d.rec}
		if sub.client, err = databus.NewClient(databus.ClientConfig{Relay: reader, Filter: f, FromSCN: d.from, Consumer: sub}); err != nil {
			return err
		}
		sub.client.Start()
		d.subs = append(d.subs, sub)
	}

	owned := docKeys / d.senders
	for s := 0; s < d.senders; s++ {
		snd := &docSender{id: s, mix: rand.New(rand.NewSource(d.seed*31 + int64(s))), seqs: make([]int64, owned)}
		for i := range snd.seqs {
			snd.seqs[i] = 1
		}
		seed := d.seed*131 + int64(s)
		rz := workload.NewFastZipfian(docKeys, 0.99, seed)
		wz := workload.NewFastZipfian(owned, 0.99, seed+7)
		snd.read = func() int { return min(rz.Next(), docKeys-1) }
		snd.write = func() int { return min(wz.Next(), owned-1) }
		hc := &http.Client{Transport: &timedTransport{next: transport, snd: snd, rec: d.rec}, Timeout: docTimeout}
		snd.client = espresso.NewHTTPClient(d.base, hc)
		d.clients = append(d.clients, snd)
	}
	d.stop = make(chan struct{})
	d.sampler.Add(1)
	go d.sampleLag()
	return nil
}

// sampleLag records, every 10 ms, the largest SCN distance between a
// partition's master and any of its slaves.
func (d *docSite) sampleLag() {
	defer d.sampler.Done()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
		}
		var worst int64
		for p := 0; p < docPartitions; p++ {
			m, err := d.c.MasterOf(p)
			if err != nil {
				continue
			}
			head := m.Node.AppliedSCN(p)
			for i := 0; i < docNodes; i++ {
				// Nodes holding no replica of p have applied nothing of it.
				other, ok := d.c.Member(fmt.Sprintf("node-%d", i))
				if !ok || other == m {
					continue
				}
				if applied := other.Node.AppliedSCN(p); applied > 0 {
					worst = max(worst, head-applied)
				}
			}
		}
		d.lagSum.Add(worst)
		d.lagSamples.Add(1)
	}
}

func (d *docSite) do(o *op) (opKind, error) {
	s := d.clients[o.sender]
	s.req.Store(o.req)
	if s.mix.Float64() < docReadFrac {
		id := s.read()
		doc, err := s.client.Get("Music", "Album", docParts(id)...)
		if err != nil {
			return opRead, err
		}
		_, err = checkDoc(id, doc)
		return opRead, err
	}
	slot := s.write()
	id := s.id + d.senders*slot
	next := s.seqs[slot] + 1
	etag, err := s.client.Put("Music", "Album", docParts(id), albumDoc(id, next), "")
	if err != nil {
		return opWrite, err
	}
	s.seqs[slot] = next
	w := docWrite{etag: etag, open: o.phase == phaseOpen, ack: time.Now().UnixNano()}
	if w.open {
		w.due = o.due.UnixNano()
	}
	s.acked = append(s.acked, w)
	return opWrite, nil
}

// committed is the binlog after the preload: the source of truth for what
// each subscriber must receive.
func (d *docSite) committed() ([]subEvent, error) {
	txns, err := d.c.Binlog.Pull(d.from, 0)
	if err != nil {
		return nil, err
	}
	var out []subEvent
	for _, t := range txns {
		for _, e := range t.Events {
			out = append(out, subEvent{scn: e.SCN, part: e.Partition, etag: etagOf(e.Payload)})
		}
	}
	return out, nil
}

func (d *docSite) expected(all []subEvent, f *databus.Filter) []subEvent {
	if f == nil {
		return all
	}
	var out []subEvent
	for _, e := range all {
		for _, p := range f.Partitions {
			if e.part == p {
				out = append(out, e)
			}
		}
	}
	return out
}

func (d *docSite) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		all, err := d.committed()
		if err != nil {
			return err
		}
		behind := 0
		for _, s := range d.subs {
			behind += len(d.expected(all, s.filter)) - s.len()
		}
		if behind <= 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscribers still %d events behind after %v", behind, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *docSite) verify(r *result) {
	all, err := d.committed()
	if err != nil {
		r.fail("databus: reading the binlog: %v", err)
		return
	}
	// Each subscriber received every committed SCN its filter selects,
	// exactly once and in commit order.
	for i, s := range d.subs {
		want, got := d.expected(all, s.filter), s.events()
		r.verified(len(want))
		for j := 0; j < max(len(want), len(got)); j++ {
			switch {
			case j >= len(got):
				r.fail("databus subscriber %d: missing SCN %d", i, want[j].scn)
			case j >= len(want):
				r.fail("databus subscriber %d: unexpected SCN %d", i, got[j].scn)
			case got[j].scn != want[j].scn || got[j].etag != want[j].etag:
				r.fail("databus subscriber %d: event %d is SCN %d, want SCN %d", i, j, got[j].scn, want[j].scn)
			}
		}
	}
	// Every acked write was committed.
	inLog := make(map[string]bool, len(all))
	for _, e := range all {
		inLog[e.etag] = true
	}
	for _, s := range d.clients {
		for _, w := range s.acked {
			if !inLog[w.etag] {
				r.fail("espresso: acked write %s missing from the binlog", w.etag)
			}
		}
		r.verified(len(s.acked))
	}
	// Every album reads back at its last acked sequence.
	checks := 0
	for _, s := range d.clients {
		for slot, seq := range s.seqs {
			id := s.id + d.senders*slot
			checks++
			doc, err := s.client.Get("Music", "Album", docParts(id)...)
			var got int64
			if err == nil {
				got, err = checkDoc(id, doc)
			}
			if err == nil && got != seq {
				err = fmt.Errorf("sequence %d, last acked %d", got, seq)
			}
			if err != nil {
				r.fail("espresso verify album %d: %v", id, err)
			}
		}
	}
	r.verified(checks)
}

func (d *docSite) check(r *result, _, _ window) {
	all, err := d.committed()
	if err != nil {
		r.fail("precondition: reading the binlog: %v", err)
		return
	}
	for i, s := range d.subs {
		if lag := len(d.expected(all, s.filter)) - s.len(); lag != 0 {
			r.fail("precondition: subscriber %d ends %d events behind", i, lag)
		}
	}
}

func (d *docSite) deliveries() (delivery []timed, propagation []time.Duration, name string) {
	for _, s := range d.clients {
		for _, w := range s.acked {
			if !w.open {
				continue
			}
			for _, sub := range d.subs {
				if at, ok := sub.receivedAt(w.etag); ok {
					delivery = append(delivery, timed{w.due, time.Duration(at - w.due)})
					propagation = append(propagation, time.Duration(at-w.ack))
				}
			}
		}
	}
	return delivery, propagation, "databus.propagation"
}

func (d *docSite) counters() map[string]float64 {
	return map[string]float64{
		ctrSourcePulls: float64(d.c.Relay.SourcePulls()),
		ctrTxns:        float64(d.c.Binlog.LastSCN()),
		ctrLagSum:      float64(d.lagSum.Load()),
		ctrLagSamples:  float64(d.lagSamples.Load()),
	}
}

func (d *docSite) caches() []cache.Stats {
	var out []cache.Stats
	for i := 0; i < docNodes; i++ {
		if m, ok := d.c.Member(fmt.Sprintf("node-%d", i)); ok && m.Node.DocCache() != nil {
			out = append(out, m.Node.DocCache().Stats())
		}
	}
	return out
}

func (d *docSite) close() {
	if d.stop != nil {
		close(d.stop)
		d.sampler.Wait()
	}
	for _, s := range d.subs {
		s.client.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.c != nil {
		d.c.Close()
	}
}

// subEvent is one change as a subscriber saw it.
type subEvent struct {
	scn  int64
	part int
	etag string
}

// subscriber is a databus.Consumer that records every delivered event.
type subscriber struct {
	client *databus.Client
	filter *databus.Filter

	mu  sync.Mutex
	got []subEvent
	at  map[string]int64 // etag -> receipt
}

func (s *subscriber) OnEvent(e databus.Event) error {
	now := time.Now().UnixNano()
	etag := etagOf(e.Payload)
	s.mu.Lock()
	s.got = append(s.got, subEvent{scn: e.SCN, part: e.Partition, etag: etag})
	if s.at == nil {
		s.at = map[string]int64{}
	}
	s.at[etag] = now
	s.mu.Unlock()
	return nil
}

func (s *subscriber) OnCheckpoint(int64) {}

func (s *subscriber) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *subscriber) events() []subEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]subEvent(nil), s.got...)
}

func (s *subscriber) receivedAt(etag string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.at[etag]
	return at, ok
}

var etagField = []byte(`"etag":"`)

// etagOf extracts the etag from an Espresso change record without decoding
// the rest of it.
func etagOf(payload []byte) string {
	i := bytes.Index(payload, etagField)
	if i < 0 {
		return ""
	}
	rest := payload[i+len(etagField):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// timedHandler records a span around an HTTP handler; Espresso requests
// carry the sender's request id in reqHeader.
type timedHandler struct {
	next     http.Handler
	rec      *recorder
	espresso bool
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, start := h.rec.begin()
	h.next.ServeHTTP(w, r)
	name := spServe
	if h.espresso {
		name = spEspHGet
		if r.Method == http.MethodPut {
			name = spEspHPut
		}
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	h.rec.end(id, start, 0, req, name, 0, nil)
}

// timedTransport records a span around each Espresso client request and
// tags it with the sender's request id.
type timedTransport struct {
	next http.RoundTripper
	snd  *docSender
	rec  *recorder
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req := t.snd.req.Load()
	r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	id, start := t.rec.begin()
	resp, err := t.next.RoundTrip(r)
	if err == nil && id != 0 {
		// The span ends when the body has been read.
		resp.Body = &timedBody{ReadCloser: resp.Body, end: func() {
			name := spEspGet
			if r.Method == http.MethodPut {
				name = spEspPut
			}
			t.rec.end(id, start, 0, req, name, 0, nil)
		}}
	}
	return resp, err
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// pollReader times a subscriber's relay polls and counts the events each
// returned.
type pollReader struct {
	r   *databus.HTTPReader
	rec *recorder
}

func (p *pollReader) ReadBlocking(since int64, max int, f *databus.Filter, timeout time.Duration) ([]databus.Event, error) {
	id, start := p.rec.begin()
	events, err := p.r.ReadBlocking(since, max, f, timeout)
	p.rec.end(id, start, 0, 0, spPoll, int64(len(events)), err)
	return events, err
}

func (p *pollReader) ReadBatchBlocking(since int64, max int, f *databus.Filter, timeout time.Duration, b *databus.Batch) (int64, error) {
	id, start := p.rec.begin()
	resume, err := p.r.ReadBatchBlocking(since, max, f, timeout, b)
	p.rec.end(id, start, 0, 0, spPoll, int64(len(b.Events)), err)
	return resume, err
}
