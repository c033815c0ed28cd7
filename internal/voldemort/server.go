package voldemort

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"datainfra/internal/cluster"
	"datainfra/internal/ring"
	"datainfra/internal/rpc"
	"datainfra/internal/storage"
	"datainfra/internal/trace"
	"datainfra/internal/vclock"
	"datainfra/internal/versioned"
)

// Server is one Voldemort storage node: it hosts engines for each store,
// serves the binary socket protocol, and runs the administrative service
// (§II.B "Admin Service") that allows store addition/deletion and partition
// streaming for rebalancing — all without downtime.
type Server struct {
	nodeID     int
	dataDir    string
	syncEvery  int
	cacheBytes int64

	mu     sync.RWMutex
	clus   *cluster.Cluster
	stores map[string]*EngineStore
	defs   map[string]*cluster.StoreDef

	transforms *TransformRegistry
	ln         net.Listener
	conns      map[net.Conn]bool
	wg         sync.WaitGroup
	closed     bool

	traces *trace.Ring // trace IDs recently seen on the socket protocol
}

// ServerConfig configures a node.
type ServerConfig struct {
	NodeID     int
	Cluster    *cluster.Cluster
	DataDir    string // required for bitcask/readonly engines
	Transforms *TransformRegistry
	// SyncEvery is the bitcask fsync batching policy: 0 (the default) syncs
	// every write through the group-commit path, so an acknowledged put is on
	// disk before the ack — the contract the black-box kill -9 scenarios
	// verify. n > 0 flushes every n writes without an explicit sync,
	// trading the durability of the last n acks for throughput.
	SyncEvery int
	// CacheBytes, when > 0, puts a hot-set read cache of that byte
	// budget in front of every store's engine (write-through
	// invalidation; see internal/cache). Each store gets its own
	// budget.
	CacheBytes int64
}

// NewServer builds a node with no stores.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Cluster.NodeByID(cfg.NodeID) == nil {
		return nil, fmt.Errorf("voldemort: node %d not in cluster %q", cfg.NodeID, cfg.Cluster.Name)
	}
	tr := cfg.Transforms
	if tr == nil {
		tr = NewTransformRegistry()
	}
	return &Server{
		nodeID:     cfg.NodeID,
		dataDir:    cfg.DataDir,
		syncEvery:  cfg.SyncEvery,
		cacheBytes: cfg.CacheBytes,
		clus:       cfg.Cluster,
		stores:     make(map[string]*EngineStore),
		defs:       make(map[string]*cluster.StoreDef),
		conns:      make(map[net.Conn]bool),
		transforms: tr,
		traces:     trace.NewRing(64),
	}, nil
}

// RecentTraces returns the trace IDs recently observed on incoming
// requests, oldest first — the server end of trace propagation.
func (s *Server) RecentTraces() []string { return s.traces.Recent() }

// SawTrace reports whether the server recently served a request carrying id.
func (s *Server) SawTrace(id string) bool { return s.traces.Contains(id) }

// NodeID returns this server's node id.
func (s *Server) NodeID() int { return s.nodeID }

// Cluster returns the current topology metadata.
func (s *Server) Cluster() *cluster.Cluster {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clus
}

// AddStore creates the engine for def and begins serving it — privileged
// admin command, no downtime.
func (s *Server) AddStore(def *cluster.StoreDef) error {
	def = def.WithDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := def.Validate(len(s.clus.Nodes)); err != nil {
		return err
	}
	if _, exists := s.stores[def.Name]; exists {
		return fmt.Errorf("voldemort: store %q already exists on node %d", def.Name, s.nodeID)
	}
	var eng storage.Engine
	var err error
	switch def.Engine {
	case cluster.EngineMemory:
		eng = storage.NewMemory(def.Name)
	case cluster.EngineBitcask:
		eng, err = storage.OpenBitcask(def.Name, s.storeDir(def.Name), s.syncEvery)
	case cluster.EngineReadOnly:
		eng, err = storage.OpenReadOnly(def.Name, s.storeDir(def.Name))
	default:
		err = fmt.Errorf("voldemort: unknown engine %q", def.Engine)
	}
	if err != nil {
		return err
	}
	s.stores[def.Name] = NewEngineStore(eng, s.nodeID, s.transforms).EnableCache(s.cacheBytes)
	s.defs[def.Name] = def
	return nil
}

func (s *Server) storeDir(store string) string {
	return filepath.Join(s.dataDir, fmt.Sprintf("node-%d", s.nodeID), store)
}

// DeleteStore stops serving and closes the named store.
func (s *Server) DeleteStore(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStore, name)
	}
	delete(s.stores, name)
	delete(s.defs, name)
	return st.Close()
}

// LocalStore returns the engine-backed store for name (in-process access).
func (s *Server) LocalStore(name string) (*EngineStore, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.stores[name]
	return st, ok
}

// StoreNames lists the stores served by this node.
func (s *Server) StoreNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.stores))
	for name := range s.stores {
		out = append(out, name)
	}
	return out
}

// Listen starts serving the socket protocol on addr ("host:0" picks a free
// port). It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			_ = rpc.ServeConn(conn, s.handleMux, rpc.ServeOptions{})
		}()
	}
}

// handleMux serves one request arriving over a multiplexed connection: the
// payload is one encoded request, the response payload one encoded response
// (the rpc frame carries the length). Handlers run concurrently on the
// per-connection worker pool, so responses may be written out of order —
// the correlation id routes each to its caller.
func (s *Server) handleMux(payload []byte) rpc.Response {
	req, err := decodeRequest(payload)
	if err != nil {
		return rpc.Response{Payload: (&response{Status: statusError, Message: err.Error()}).appendTo(nil)}
	}
	mServerRequests.With(opName(req.Op)).Inc()
	if req.Trace != "" {
		s.traces.Add(req.Trace)
		trace.Logf(req.Trace, "voldemort node %d: %s store=%s keylen=%d",
			s.nodeID, opName(req.Op), req.Store, len(req.Key))
	}
	resp := s.dispatch(req)
	if resp.Status != statusOK && req.Trace != "" {
		// Surface the trace in the error string so the failing replica
		// can be found from the client-side error alone.
		resp.Message = "[trace=" + req.Trace + "] " + resp.Message
	}
	return rpc.Response{Payload: resp.appendTo(nil)}
}

func (s *Server) store(name string) (*EngineStore, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.stores[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStore, name)
	}
	return st, nil
}

func (s *Server) dispatch(req *request) *response {
	switch req.Op {
	case opPing:
		return &response{Status: statusOK}

	case opGet:
		st, err := s.store(req.Store)
		if err != nil {
			return errToResponse(err, nil)
		}
		var tr *Transform
		if req.TrName != "" {
			tr = &Transform{Name: req.TrName, Arg: req.TrArg}
		}
		vs, err := st.Get(req.Key, tr)
		if err != nil {
			return errToResponse(err, nil)
		}
		payload, err := encodeVersionSet(vs)
		return errToResponse(err, payload)

	case opGetAll:
		st, err := s.store(req.Store)
		if err != nil {
			return errToResponse(err, nil)
		}
		keys, err := decodeKeys(req.Body)
		if err != nil {
			return errToResponse(err, nil)
		}
		entries, err := st.GetAll(keys)
		if err != nil {
			return errToResponse(err, nil)
		}
		payload, err := encodeKeyedVersionSets(entries)
		return errToResponse(err, payload)

	case opPut:
		st, err := s.store(req.Store)
		if err != nil {
			return errToResponse(err, nil)
		}
		var v versioned.Versioned
		if err := v.UnmarshalBinary(req.Body); err != nil {
			return errToResponse(err, nil)
		}
		var tr *Transform
		if req.TrName != "" {
			tr = &Transform{Name: req.TrName, Arg: req.TrArg}
		}
		return errToResponse(st.Put(req.Key, &v, tr), nil)

	case opDelete:
		st, err := s.store(req.Store)
		if err != nil {
			return errToResponse(err, nil)
		}
		var clock *vclock.Clock
		if len(req.Body) > 0 {
			clock, err = vclock.Decode(req.Body)
			if err != nil {
				return errToResponse(err, nil)
			}
		}
		deleted, err := st.Delete(req.Key, clock)
		if err != nil {
			return errToResponse(err, nil)
		}
		payload := []byte{0}
		if deleted {
			payload[0] = 1
		}
		return &response{Status: statusOK, Payload: payload}

	case opAddStore:
		var def cluster.StoreDef
		if err := json.Unmarshal(req.Body, &def); err != nil {
			return errToResponse(err, nil)
		}
		return errToResponse(s.AddStore(&def), nil)

	case opDeleteStore:
		return errToResponse(s.DeleteStore(req.Store), nil)

	case opListStores:
		payload, err := json.Marshal(s.StoreNames())
		return errToResponse(err, payload)

	case opGetCluster:
		s.mu.RLock()
		payload, err := json.Marshal(s.clus)
		s.mu.RUnlock()
		return errToResponse(err, payload)

	case opUpdateCluster:
		var c cluster.Cluster
		if err := json.Unmarshal(req.Body, &c); err != nil {
			return errToResponse(err, nil)
		}
		s.mu.Lock()
		s.clus = &c
		s.mu.Unlock()
		return &response{Status: statusOK}

	case opFetchPartitions:
		payload, err := s.fetchPartitionPage(req)
		return errToResponse(err, payload)

	case opDeletePartition:
		return errToResponse(s.deletePartition(req), nil)

	case opSwapReadOnly:
		return errToResponse(s.swapReadOnly(req.Store, req.Body, false), nil)

	case opRollbackRO:
		return errToResponse(s.swapReadOnly(req.Store, nil, true), nil)

	default:
		return &response{Status: statusError, Message: fmt.Sprintf("unknown op %d", req.Op)}
	}
}

// swapReadOnly swaps (or rolls back) the read-only engine behind a store —
// the Swap phase of Figure II.3, executed per node by the controller.
func (s *Server) swapReadOnly(store string, versionBytes []byte, rollback bool) error {
	st, err := s.store(store)
	if err != nil {
		return err
	}
	ro, ok := st.Engine().(*storage.ReadOnlyEngine)
	if !ok {
		return fmt.Errorf("voldemort: store %q is not read-only", store)
	}
	// The swap replaces the entire dataset behind the store, so any
	// cached version sets are stale wholesale.
	defer st.InvalidateCache()
	if rollback {
		return ro.Rollback()
	}
	v, err := strconv.Atoi(string(versionBytes))
	if err != nil {
		return fmt.Errorf("voldemort: bad swap version: %w", err)
	}
	return ro.Swap(v)
}

// ReadOnlyEngine returns the read-only engine behind store, if any.
func (s *Server) ReadOnlyEngine(store string) (*storage.ReadOnlyEngine, bool) {
	st, err := s.store(store)
	if err != nil {
		return nil, false
	}
	ro, ok := st.Engine().(*storage.ReadOnlyEngine)
	return ro, ok
}

// fetchPageBudget caps the encoded entries in one fetch-partitions page, far
// below rpc.MaxFrame so a page always fits one mux frame.
const fetchPageBudget = 1 << 20

// partitionFilter decodes a JSON partition list into a predicate matching
// keys whose primary partition is in the list.
func (s *Server) partitionFilter(body []byte) (func(key []byte) bool, error) {
	var parts []int
	if err := json.Unmarshal(body, &parts); err != nil {
		return nil, fmt.Errorf("voldemort: bad partition list: %w", err)
	}
	want := make(map[int]bool, len(parts))
	for _, p := range parts {
		want[p] = true
	}
	s.mu.RLock()
	numPartitions := s.clus.NumPartitions
	s.mu.RUnlock()
	return func(key []byte) bool { return want[ring.Hash(key, numPartitions)] }, nil
}

// fetchPartitionPage answers one page of a partition fetch (the rebalancing
// copy phase): the entries whose primary partition is in the requested set
// and whose key is >= req.Key, in ascending key order, up to fetchPageBudget
// encoded bytes but never fewer than one entry. The payload is
// u8 more | (bytes32 key, bytes32 versionSet)*, with more = 1 while entries
// past the page remain. The server keeps no cursor: every page is one scan of
// the store, so a page retried after a timeout or redial is answered alike.
func (s *Server) fetchPartitionPage(req *request) ([]byte, error) {
	st, err := s.store(req.Store)
	if err != nil {
		return nil, err
	}
	match, err := s.partitionFilter(req.Body)
	if err != nil {
		return nil, err
	}
	type entry struct{ key, enc []byte }
	var (
		page  []entry
		size  int
		limit []byte // keys >= limit fall past this page; nil while all fit
	)
	// trim sorts the candidates and keeps the smallest keys that fit the
	// budget, lowering limit to the first key dropped. Running it whenever
	// the candidates reach twice the budget bounds the scan's memory.
	trim := func() {
		sort.Slice(page, func(i, j int) bool { return bytes.Compare(page[i].key, page[j].key) < 0 })
		n := 0
		for size = 0; n < len(page) && (n == 0 || size+len(page[n].enc) <= fetchPageBudget); n++ {
			size += len(page[n].enc)
		}
		if n < len(page) {
			limit = page[n].key
			page = page[:n]
		}
	}
	var encErr error
	err = st.Engine().Entries(func(key []byte, vs []*versioned.Versioned) bool {
		if bytes.Compare(key, req.Key) < 0 || (limit != nil && bytes.Compare(key, limit) >= 0) || !match(key) {
			return true
		}
		data, err := encodeVersionSet(vs)
		if err != nil {
			encErr = err
			return false
		}
		var w wbuf
		w.bytes32(key)
		w.bytes32(data)
		page = append(page, entry{key: w.b[4 : 4+len(key)], enc: w.b})
		if size += len(w.b); size > 2*fetchPageBudget {
			trim()
		}
		return true
	})
	if err == nil {
		err = encErr
	}
	if err != nil {
		return nil, err
	}
	trim()
	out := make([]byte, 1, 1+size)
	if limit != nil {
		out[0] = 1
	}
	for _, e := range page {
		out = append(out, e.enc...)
	}
	return out, nil
}

// deletePartition removes all keys with primary partitions in the given set
// (post-rebalance cleanup on the donor).
func (s *Server) deletePartition(req *request) error {
	st, err := s.store(req.Store)
	if err != nil {
		return err
	}
	match, err := s.partitionFilter(req.Body)
	if err != nil {
		return err
	}
	var keys [][]byte
	if err := st.Engine().Entries(func(key []byte, _ []*versioned.Versioned) bool {
		if match(key) {
			k := make([]byte, len(key))
			copy(k, key)
			keys = append(keys, k)
		}
		return true
	}); err != nil {
		return err
	}
	// Deletes went straight to the engine, bypassing the store's
	// write-through invalidation — flush the cache once at the end.
	defer st.InvalidateCache()
	for _, k := range keys {
		if _, err := st.Engine().Delete(k, nil); err != nil && !errors.Is(err, storage.ErrNoSuchKey) {
			return err
		}
	}
	return nil
}

// Close stops the listener and closes every store.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	stores := make([]*EngineStore, 0, len(s.stores))
	for _, st := range s.stores {
		stores = append(stores, st)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	var firstErr error
	for _, st := range stores {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
