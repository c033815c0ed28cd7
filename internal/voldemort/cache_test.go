package voldemort

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"datainfra/internal/ring"
	"datainfra/internal/storage"
	"datainfra/internal/versioned"
)

// countingEngine wraps a storage.Engine and counts Get calls — the
// probe for "did the cache actually absorb this read".
type countingEngine struct {
	storage.Engine
	gets atomic.Int64
}

func (e *countingEngine) Get(key []byte) ([]*versioned.Versioned, error) {
	e.gets.Add(1)
	return e.Engine.Get(key)
}

func newCachedStore(t *testing.T, maxBytes int64) (*EngineStore, *countingEngine) {
	t.Helper()
	eng := &countingEngine{Engine: storage.NewMemory("cached")}
	es := NewEngineStore(eng, 0, nil).EnableCache(maxBytes)
	return es, eng
}

func putRaw(t *testing.T, es *EngineStore, key, val string, incs int) {
	t.Helper()
	v := versioned.New([]byte(val))
	for i := 0; i < incs; i++ {
		v.Clock.Increment(0, int64(i+1))
	}
	if err := es.Put([]byte(key), v, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStoreCacheServesRepeatReads(t *testing.T) {
	es, eng := newCachedStore(t, 1<<20)
	putRaw(t, es, "k1", "v1", 1)

	for i := 0; i < 10; i++ {
		vs, err := es.Get([]byte("k1"), nil)
		if err != nil || len(vs) != 1 || string(vs[0].Value) != "v1" {
			t.Fatalf("Get = %v, %v", vs, err)
		}
	}
	if n := eng.gets.Load(); n != 1 {
		t.Fatalf("engine saw %d gets, want 1 (cache miss only)", n)
	}
	st := es.Cache().Stats()
	if st.Hits != 9 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineStoreCacheWriteThroughInvalidation(t *testing.T) {
	es, _ := newCachedStore(t, 1<<20)
	putRaw(t, es, "k1", "old", 1)
	if vs, _ := es.Get([]byte("k1"), nil); string(vs[0].Value) != "old" {
		t.Fatal("seed read failed")
	}
	// Overwrite with a dominating clock; the cached entry must go.
	putRaw(t, es, "k1", "new", 3)
	vs, err := es.Get([]byte("k1"), nil)
	if err != nil || len(vs) != 1 || string(vs[0].Value) != "new" {
		t.Fatalf("post-put Get = %v, %v", vs, err)
	}

	// Delete invalidates too.
	if _, err := es.Delete([]byte("k1"), vs[0].Clock); err != nil {
		t.Fatal(err)
	}
	if vs, err := es.Get([]byte("k1"), nil); err != nil || len(vs) != 0 {
		t.Fatalf("post-delete Get = %v, %v", vs, err)
	}
}

func TestEngineStoreCacheNegativeEntry(t *testing.T) {
	es, eng := newCachedStore(t, 1<<20)
	for i := 0; i < 5; i++ {
		if vs, err := es.Get([]byte("ghost"), nil); err != nil || len(vs) != 0 {
			t.Fatalf("Get = %v, %v", vs, err)
		}
	}
	if n := eng.gets.Load(); n != 1 {
		t.Fatalf("engine saw %d gets for a missing key, want 1", n)
	}
	// The key coming into existence must invalidate the negative entry.
	putRaw(t, es, "ghost", "real", 1)
	if vs, _ := es.Get([]byte("ghost"), nil); len(vs) != 1 || string(vs[0].Value) != "real" {
		t.Fatal("negative entry shadowed a created key")
	}
}

func TestEngineStoreCachedTransformReads(t *testing.T) {
	eng := &countingEngine{Engine: storage.NewMemory("rng")}
	es := NewEngineStore(eng, 0, nil).EnableCache(1 << 20)
	putRaw(t, es, "row", "abcdef", 1)
	// Transforms are applied on top of the cached raw versions and
	// allocate fresh slices, so cached values stay immutable.
	tr := &Transform{Name: "bytes.range", Arg: SliceArg(2, 4)}
	for i := 0; i < 3; i++ {
		vs, err := es.Get([]byte("row"), tr)
		if err != nil || len(vs) != 1 || string(vs[0].Value) != "cd" {
			t.Fatalf("transform Get = %v, %v", vs, err)
		}
	}
	raw, err := es.Get([]byte("row"), nil)
	if err != nil || string(raw[0].Value) != "abcdef" {
		t.Fatalf("raw Get after transforms = %v, %v", raw, err)
	}
	if n := eng.gets.Load(); n != 1 {
		t.Fatalf("engine saw %d gets, want 1", n)
	}
}

func TestEngineStoreGetAllPartialHits(t *testing.T) {
	es, eng := newCachedStore(t, 1<<20)
	for i := 0; i < 10; i++ {
		putRaw(t, es, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), 1)
	}
	// Prime half the keys through single-key reads.
	for i := 0; i < 10; i += 2 {
		if _, err := es.Get([]byte(fmt.Sprintf("k%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.gets.Store(0)
	keys := make([][]byte, 0, 11)
	for i := 0; i < 10; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
	}
	keys = append(keys, []byte("absent"))
	got, err := es.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("GetAll returned %d entries, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if string(got[k][0].Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q", k, got[k][0].Value)
		}
	}
	// Only the 5 unprimed keys + the absent key hit the engine.
	if n := eng.gets.Load(); n != 6 {
		t.Fatalf("engine saw %d gets, want 6 (misses only)", n)
	}
	// A second pass is fully resident, including the negative entry.
	eng.gets.Store(0)
	if _, err := es.GetAll(keys); err != nil {
		t.Fatal(err)
	}
	if n := eng.gets.Load(); n != 0 {
		t.Fatalf("second GetAll saw %d engine gets, want 0", n)
	}
}

func TestEngineStoreGetAllDupKeysSingleFetch(t *testing.T) {
	es, eng := newCachedStore(t, 1<<20)
	putRaw(t, es, "dup", "v", 1)
	keys := [][]byte{[]byte("dup"), []byte("dup"), []byte("dup")}
	got, err := es.GetAll(keys)
	if err != nil || len(got) != 1 {
		t.Fatalf("GetAll = %v, %v", got, err)
	}
	if n := eng.gets.Load(); n != 1 {
		t.Fatalf("engine saw %d gets for one unique key, want 1", n)
	}
}

// countingStore wraps a Store and counts Get fan-outs — the probe for
// the RoutedStore.GetAll dedup regression.
type countingStore struct {
	Store
	gets atomic.Int64
}

func (s *countingStore) Get(key []byte, tr *Transform) ([]*versioned.Versioned, error) {
	s.gets.Add(1)
	return s.Store.Get(key, tr)
}

func (s *countingStore) Put(key []byte, v *versioned.Versioned, tr *Transform) error {
	return s.Store.Put(key, v, tr)
}

func TestRoutedGetAllDeduplicatesKeys(t *testing.T) {
	rig := newRig(t, 3, 12, 3, 2, 2, false)
	counters := make([]*countingStore, 0, 3)
	stores := make(map[int]Store, 3)
	for id, es := range rig.engines {
		cs := &countingStore{Store: es}
		counters = append(counters, cs)
		stores[id] = cs
	}
	strategy, err := ring.NewConsistent(rig.clus, rig.def.Replication)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := NewRouted(RoutedConfig{
		Def: rig.def, Cluster: rig.clus, Strategy: strategy, Stores: stores,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(routed, nil, 1)
	if err := c.Put([]byte("feed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	total := func() (n int64) {
		for _, cs := range counters {
			n += cs.gets.Load()
		}
		return n
	}
	// The put's pre-read fans out to every replica but returns after R
	// acks; let its stragglers land before taking the baseline, or one of
	// them is counted against GetAll.
	for deadline := time.Now().Add(2 * time.Second); total() < int64(rig.def.Replication) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	before := total()
	// The same key 50 times must cost exactly one quorum read.
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = []byte("feed")
	}
	got, err := routed.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got["feed"]) == 0 {
		t.Fatalf("GetAll = %v", got)
	}
	after := total()
	// One quorum read touches at most Replication backends (reads fan
	// out to all replicas; R acks complete it, stragglers may still
	// land). 50 duplicated keys must NOT multiply that.
	if n := after - before; n > int64(rig.def.Replication) {
		t.Fatalf("duplicated keys cost %d backend gets, want <= %d", n, rig.def.Replication)
	}
	if !bytes.Equal(got["feed"][0].Value, []byte("v")) {
		t.Fatalf("value = %q", got["feed"][0].Value)
	}
}

func TestServerAdminPathsFlushCache(t *testing.T) {
	es, _ := newCachedStore(t, 1<<20)
	putRaw(t, es, "k", "v", 1)
	if _, err := es.Get([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	// Simulate an admin path mutating the engine directly (as
	// deletePartition does), then flushing.
	if _, err := es.Engine().Delete([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	es.InvalidateCache()
	if vs, err := es.Get([]byte("k"), nil); err != nil || len(vs) != 0 {
		t.Fatalf("Get after flush = %v, %v", vs, err)
	}
}
