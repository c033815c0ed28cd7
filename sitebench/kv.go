package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datainfra/internal/cache"
	"datainfra/internal/cluster"
	"datainfra/internal/failure"
	"datainfra/internal/ring"
	"datainfra/internal/storage"
	"datainfra/internal/vclock"
	"datainfra/internal/versioned"
	"datainfra/internal/voldemort"
	"datainfra/internal/workload"
)

// kvConfig shapes a Voldemort Company-Follow workload.
type kvConfig struct {
	keys       int     // member keyspace, fully preloaded
	readFrac   float64 // share of gets
	zipfian    bool    // θ=0.99 Zipfian keys; uniform otherwise
	cacheBytes int64   // per-node read cache budget
	fillCache  bool    // read every key once during set-up
}

const (
	kvStore    = "follow"
	kvNodes    = 3
	kvMinValue = 100
	kvMaxValue = 200
	kvTimeout  = 2 * time.Second
)

func newKVHot(e *env) site {
	return &kvSite{env: e, cfg: kvConfig{keys: 750, readFrac: 0.95, zipfian: true, cacheBytes: 256 << 10, fillCache: true}}
}

func newKVCold(e *env) site {
	return &kvSite{env: e, cfg: kvConfig{keys: 12000, readFrac: 0.5, cacheBytes: 256 << 10}}
}

// followStoreDef is the datainfra-cluster follow store: N=2, R=W=1, bitcask,
// hinted handoff and read repair.
func followStoreDef() *cluster.StoreDef {
	return (&cluster.StoreDef{
		Name: kvStore, Engine: cluster.EngineBitcask,
		Replication: 2, RequiredReads: 1, RequiredWrites: 1,
		HintedHandoff: true, ReadRepair: true,
	}).WithDefaults()
}

// kvSite is three Voldemort nodes plus one routed client stack per sender.
type kvSite struct {
	*env
	cfg kvConfig

	clus      *cluster.Cluster
	servers   []*voldemort.Server
	sockets   map[int]voldemort.Store
	detector  *failure.SuccessRatio
	slop      *voldemort.SlopPusher
	verifier  *voldemort.Client
	clients   []*kvSender
	keys      [][]byte
	pool      []byte  // value bodies are windows into it
	nodeBytes []int64 // raw key+value bytes preloaded per node
	userBytes atomic.Int64
}

// kvSender is one sender's client stack and ledger. It owns the write keys
// whose ids are ≡ its index (mod senders), so its writes to a key are
// sequential and the last acked sequence is well defined.
type kvSender struct {
	id     int
	client *voldemort.Client
	mix    *rand.Rand
	read   func() int
	write  func() int // owned slot
	seqs   []int64    // last acked sequence per owned slot

	req        atomic.Int64 // current operation's request id
	parent     atomic.Int64 // current routed span
	replicaAck atomic.Int64 // latest replica put completion of the current write (unix ns)

	delivered []timed // open-loop writes: due time to the last replica's ack
}

func (k *kvSite) params() map[string]any {
	minNode := k.nodeBytes[0]
	for _, b := range k.nodeBytes {
		minNode = min(minNode, b)
	}
	dist := "uniform"
	if k.cfg.zipfian {
		dist = "zipfian-0.99"
	}
	return map[string]any{
		"nodes": kvNodes, "replication": 2, "required_reads": 1, "required_writes": 1,
		"engine": "bitcask", "sync_every": 0,
		"keys": k.cfg.keys, "read_fraction": k.cfg.readFrac, "key_distribution": dist,
		"value_bytes_min": kvMinValue, "value_bytes_max": kvMaxValue,
		"cache_bytes_per_node": k.cfg.cacheBytes, "keyspace_bytes_min_node": minNode,
	}
}

// value renders the deterministic value of (id, seq): "<seq>|" and a window
// of the seeded byte pool whose length depends only on id.
func (k *kvSite) value(id int, seq int64) []byte {
	size := kvMinValue + id%(kvMaxValue-kvMinValue+1)
	off := int((uint64(id)*2654435761 + uint64(seq)*40503) % uint64(len(k.pool)-kvMaxValue))
	v := strconv.AppendInt(make([]byte, 0, size+12), seq, 10)
	v = append(v, '|')
	return append(v, k.pool[off:off+size]...)
}

// checkValue parses a read value and checks its body against its sequence.
func (k *kvSite) checkValue(id int, v []byte) (int64, error) {
	i := bytes.IndexByte(v, '|')
	if i < 0 {
		return 0, fmt.Errorf("key %d: malformed value %q", id, v)
	}
	seq, err := strconv.ParseInt(string(v[:i]), 10, 64)
	if err != nil || seq < 1 {
		return 0, fmt.Errorf("key %d: malformed sequence %q", id, v[:i])
	}
	if !bytes.Equal(v, k.value(id, seq)) {
		return 0, fmt.Errorf("key %d: value of sequence %d corrupted", id, seq)
	}
	return seq, nil
}

func (k *kvSite) setup() error {
	r := rand.New(rand.NewSource(k.seed))
	k.pool = make([]byte, 64<<10)
	for i := range k.pool {
		k.pool[i] = byte('a' + r.Intn(26))
	}
	k.keys = make([][]byte, k.cfg.keys)
	for i := range k.keys {
		k.keys[i] = workload.Key(kvStore, i)
	}
	k.clus = cluster.Uniform("sitebench", kvNodes, 12, 0)
	if err := k.preload(); err != nil {
		return err
	}
	def := followStoreDef()
	k.sockets = map[int]voldemort.Store{}
	for _, n := range k.clus.Nodes {
		srv, err := voldemort.NewServer(voldemort.ServerConfig{
			NodeID: n.ID, Cluster: k.clus, DataDir: k.dir, SyncEvery: 0, CacheBytes: k.cfg.cacheBytes,
		})
		if err != nil {
			return err
		}
		k.servers = append(k.servers, srv)
		if err := srv.AddStore(def); err != nil {
			return err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return err
		}
		n.Host = host
		if n.Port, err = strconv.Atoi(port); err != nil {
			return err
		}
		sock := voldemort.DialStore(kvStore, addr, kvTimeout)
		k.sockets[n.ID] = sock
		if err := sock.Ping(); err != nil {
			return fmt.Errorf("node %d: %w", n.ID, err)
		}
	}
	k.detector = failure.NewSuccessRatio(failure.SuccessRatioConfig{}, failure.ProberFunc(func(node int) error {
		n := k.clus.NodeByID(node)
		if n == nil {
			return voldemort.ErrNodeDown
		}
		s := voldemort.DialStore("", n.Addr(), kvTimeout)
		defer s.Close()
		return s.Ping()
	}))
	k.slop = voldemort.NewSlopPusher(func(node int, store string) (voldemort.Store, bool) {
		s, ok := k.sockets[node]
		return s, ok
	}, k.detector, 0)
	k.slop.Start()

	strategy, err := ring.NewConsistent(k.clus, def.Replication)
	if err != nil {
		return err
	}
	vdef := followStoreDef()
	vdef.RequiredReads, vdef.RequiredWrites = vdef.Replication, vdef.Replication
	vdef.PreferredReads, vdef.PreferredWrites = vdef.Replication, vdef.Replication
	vrouted, err := voldemort.NewRouted(voldemort.RoutedConfig{
		Def: vdef, Cluster: k.clus, Strategy: strategy, Detector: k.detector, Stores: k.sockets, Timeout: kvTimeout,
	})
	if err != nil {
		return err
	}
	k.verifier = voldemort.NewClient(vrouted, nil, k.senders)

	owned := k.cfg.keys / k.senders
	for s := 0; s < k.senders; s++ {
		snd := &kvSender{id: s, mix: rand.New(rand.NewSource(k.seed*31 + int64(s))), seqs: make([]int64, owned)}
		for i := range snd.seqs {
			snd.seqs[i] = 1 // the preload
		}
		seed := k.seed*131 + int64(s)
		if k.cfg.zipfian {
			rz := workload.NewFastZipfian(k.cfg.keys, 0.99, seed)
			wz := workload.NewFastZipfian(owned, 0.99, seed+7)
			snd.read = func() int { return min(rz.Next(), k.cfg.keys-1) }
			snd.write = func() int { return min(wz.Next(), owned-1) }
		} else {
			ru := workload.NewUniform(k.cfg.keys, seed)
			wu := workload.NewUniform(owned, seed+7)
			snd.read, snd.write = ru.Next, wu.Next
		}
		stores := map[int]voldemort.Store{}
		for id, sock := range k.sockets {
			stores[id] = &replicaStore{Store: sock, snd: snd, rec: k.rec}
		}
		routed, err := voldemort.NewRouted(voldemort.RoutedConfig{
			Def: def, Cluster: k.clus, Strategy: strategy, Detector: k.detector,
			Stores: stores, Slop: k.slop, Timeout: kvTimeout,
		})
		if err != nil {
			return err
		}
		snd.client = voldemort.NewClient(&routedStore{RoutedStore: routed, snd: snd, rec: k.rec}, nil, s)
		k.clients = append(k.clients, snd)
	}
	if k.cfg.fillCache {
		return k.parallel(k.cfg.keys, func(id int) error {
			_, _, err := k.clients[id%k.senders].client.Get(k.keys[id])
			return err
		})
	}
	return nil
}

// preload bulk-loads every key at sequence 1 straight into each replica's
// bitcask files before the servers open them.
func (k *kvSite) preload() error {
	strategy, err := ring.NewConsistent(k.clus, followStoreDef().Replication)
	if err != nil {
		return err
	}
	engines := make([]*storage.BitcaskEngine, kvNodes)
	k.nodeBytes = make([]int64, kvNodes)
	for i := range engines {
		dir := filepath.Join(k.dir, fmt.Sprintf("node-%d", i), kvStore)
		if engines[i], err = storage.OpenBitcask(kvStore, dir, 1<<30); err != nil {
			return err
		}
	}
	ts := time.Now().UnixMilli()
	for id, key := range k.keys {
		nodes := strategy.NodeList(key)
		v := versioned.With(k.value(id, 1), vclock.New().Incremented(int32(nodes[0].ID), ts))
		for _, n := range nodes {
			if err == nil {
				err = engines[n.ID].Put(key, v.Clone())
			}
			k.nodeBytes[n.ID] += int64(len(key) + len(v.Value))
		}
	}
	for _, e := range engines {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// parallel runs fn for ids [0, n) on 2×senders goroutines and returns the
// first error.
func (k *kvSite) parallel(n int, fn func(id int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for g := 0; g < 2*k.senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1) - 1)
				if id >= n {
					return
				}
				if err := fn(id); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func (k *kvSite) do(o *op) (opKind, error) {
	s := k.clients[o.sender]
	s.req.Store(o.req)
	if s.mix.Float64() < k.cfg.readFrac {
		id := s.read()
		v, ok, err := s.client.Get(k.keys[id])
		if err != nil {
			return opRead, err
		}
		if !ok {
			return opRead, fmt.Errorf("key %d: missing", id)
		}
		_, err = k.checkValue(id, v)
		return opRead, err
	}
	slot := s.write()
	id := s.id + k.senders*slot
	next := s.seqs[slot] + 1
	v := k.value(id, next)
	s.replicaAck.Store(0)
	if err := s.client.Put(k.keys[id], v); err != nil {
		return opWrite, err
	}
	s.seqs[slot] = next
	k.userBytes.Add(int64(len(v)))
	if o.phase == phaseOpen {
		due := o.due.UnixNano()
		s.delivered = append(s.delivered, timed{due, time.Duration(s.replicaAck.Load() - due)})
	}
	return opWrite, nil
}

// settle has nothing to wait for: a put returns once every replica acked.
func (k *kvSite) settle(time.Duration) error { return nil }

// verify reads back every sender-owned key at R=W=N and requires its last
// acked sequence (1 for keys only the preload wrote).
func (k *kvSite) verify(r *result) {
	want := map[int]int64{}
	for _, s := range k.clients {
		for slot, seq := range s.seqs {
			want[s.id+k.senders*slot] = seq
		}
	}
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	var mu sync.Mutex
	_ = k.parallel(len(ids), func(i int) error {
		id := ids[i]
		v, ok, err := k.verifier.Get(k.keys[id])
		var seq int64
		if err == nil && !ok {
			err = fmt.Errorf("missing")
		}
		if err == nil {
			seq, err = k.checkValue(id, v)
		}
		if err == nil && seq != want[id] {
			err = fmt.Errorf("sequence %d, last acked %d", seq, want[id])
		}
		if err != nil {
			mu.Lock()
			r.fail("voldemort verify key %d: %v", id, err)
			mu.Unlock()
		}
		return nil
	})
	r.verified(len(ids))
}

func (k *kvSite) check(r *result, measured, open window) {
	evictions := measured.cache(func(s cache.Stats) int64 { return s.Evictions })
	hits := open.cache(func(s cache.Stats) int64 { return s.Hits })
	misses := open.cache(func(s cache.Stats) int64 { return s.Misses })
	hitRatio := ratio(hits, hits+misses)
	if k.cfg.fillCache {
		if evictions != 0 {
			r.fail("precondition: %v cache evictions after warm-up on a cache-resident keyspace", evictions)
		}
		if hitRatio < 0.9 {
			r.fail("precondition: cache hit ratio %.3f < 0.9 on a cache-resident keyspace", hitRatio)
		}
		return
	}
	for n, b := range k.nodeBytes {
		if b < 4*k.cfg.cacheBytes {
			r.fail("precondition: node %d keyspace %d bytes < 4x cache budget %d", n, b, k.cfg.cacheBytes)
		}
	}
	if evictions == 0 {
		r.fail("precondition: no cache evictions on a keyspace larger than the cache")
	}
}

func (k *kvSite) deliveries() ([]timed, []time.Duration, string) {
	var out []timed
	for _, s := range k.clients {
		out = append(out, s.delivered...)
	}
	return out, nil, ""
}

func (k *kvSite) counters() map[string]float64 {
	var data int64
	for n := range k.servers {
		if fi, err := os.Stat(filepath.Join(k.dir, fmt.Sprintf("node-%d", n), kvStore, "data.bitcask")); err == nil {
			data += fi.Size()
		}
	}
	return map[string]float64{ctrDataBytes: float64(data), ctrUserBytes: float64(k.userBytes.Load())}
}

func (k *kvSite) caches() []cache.Stats {
	var out []cache.Stats
	for _, srv := range k.servers {
		if st, ok := srv.LocalStore(kvStore); ok && st.Cache() != nil {
			out = append(out, st.Cache().Stats())
		}
	}
	return out
}

func (k *kvSite) close() {
	if k.slop != nil {
		k.slop.Close()
	}
	if k.detector != nil {
		k.detector.Close()
	}
	for _, s := range k.sockets {
		s.Close()
	}
	for _, srv := range k.servers {
		srv.Close()
	}
}

// routedStore times the sender's quorum operations and forwards MasterNode,
// which the client uses to pick the clock entry it increments.
type routedStore struct {
	*voldemort.RoutedStore
	snd *kvSender
	rec *recorder
}

func (s *routedStore) Get(key []byte, tr *voldemort.Transform) ([]*versioned.Versioned, error) {
	id, start := s.rec.begin()
	s.snd.parent.Store(id)
	vs, err := s.RoutedStore.Get(key, tr)
	s.rec.end(id, start, 0, s.snd.req.Load(), spRoutedGet, 0, err)
	return vs, err
}

func (s *routedStore) Put(key []byte, v *versioned.Versioned, tr *voldemort.Transform) error {
	id, start := s.rec.begin()
	s.snd.parent.Store(id)
	err := s.RoutedStore.Put(key, v, tr)
	s.rec.end(id, start, 0, s.snd.req.Load(), spRoutedPut, 0, err)
	return err
}

// replicaStore wraps one node's socket store inside one sender's routed
// store. It times replica calls as children of the routed span that issued
// them, and notes when the last replica acked the sender's current write.
type replicaStore struct {
	voldemort.Store
	snd *kvSender
	rec *recorder
}

func (s *replicaStore) Get(key []byte, tr *voldemort.Transform) ([]*versioned.Versioned, error) {
	parent, req := s.snd.parent.Load(), s.snd.req.Load()
	id, start := s.rec.begin()
	vs, err := s.Store.Get(key, tr)
	s.rec.end(id, start, parent, req, spReplicaGet, 0, err)
	return vs, err
}

func (s *replicaStore) Put(key []byte, v *versioned.Versioned, tr *voldemort.Transform) error {
	parent, req := s.snd.parent.Load(), s.snd.req.Load()
	id, start := s.rec.begin()
	err := s.Store.Put(key, v, tr)
	s.rec.end(id, start, parent, req, spReplicaPut, 0, err)
	if err == nil {
		now := time.Now().UnixNano()
		for {
			cur := s.snd.replicaAck.Load()
			if cur >= now || s.snd.replicaAck.CompareAndSwap(cur, now) {
				break
			}
		}
	}
	return err
}

// Close leaves the shared socket open; the site closes it.
func (s *replicaStore) Close() error { return nil }
