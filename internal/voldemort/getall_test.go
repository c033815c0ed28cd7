package voldemort

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"datainfra/internal/cluster"
	"datainfra/internal/versioned"
)

func TestGetAllEngineStore(t *testing.T) {
	rig := newRig(t, 3, 12, 2, 1, 2, false)
	c := NewClient(rig.routed, nil, 1)
	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	keys := [][]byte{[]byte("k1"), []byte("k5"), []byte("k19"), []byte("missing")}
	got, err := c.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("GetAll returned %d entries", len(got))
	}
	if string(got["k5"]) != "v5" {
		t.Fatalf("k5 = %q", got["k5"])
	}
	if _, present := got["missing"]; present {
		t.Fatal("missing key present in result")
	}
}

func TestGetAllOverSocket(t *testing.T) {
	def := (&cluster.StoreDef{Name: "ga", Replication: 1, RequiredReads: 1, RequiredWrites: 1}).WithDefaults()
	clus, _ := startCluster(t, 1, 4, def)
	ss := DialStore("ga", clus.NodeByID(0).Addr(), time.Second)
	defer ss.Close()
	c := NewClient(ss, nil, 1)
	for i := 0; i < 10; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	for i := 0; i < 10; i += 2 {
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
	}
	got, err := c.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("socket GetAll returned %d entries", len(got))
	}
	for i := 0; i < 10; i += 2 {
		if string(got[fmt.Sprintf("k%d", i)]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q", i, got[fmt.Sprintf("k%d", i)])
		}
	}
	// empty key list
	got, err = c.GetAll(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty GetAll = (%d, %v)", len(got), err)
	}
}

func TestGetAllRoutedWithFailures(t *testing.T) {
	rig := newRig(t, 3, 12, 3, 1, 2, false)
	c := NewClient(rig.routed, nil, 1)
	var keys [][]byte
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		keys = append(keys, k)
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// W=2 returns before the third replica's write lands, and with R=1 that
	// lagging replica may answer a read alone: wait until every node (N=3 of
	// 3) holds every key, so a missing key can only be the failure's doing.
	deadline := time.Now().Add(5 * time.Second)
	for _, es := range rig.engines {
		for _, k := range keys {
			for {
				vs, err := es.Get(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(vs) > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("key %s never reached every replica", k)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	rig.flaky[0].SetFailing(true) // R=1 of N=3 still satisfiable
	got, err := c.GetAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("GetAll with node down returned %d/30", len(got))
	}
}

// gatedGetStore blocks every Get until released, so in-flight GetAll work
// piles up and the concurrency bound becomes observable. entered counts the
// Gets parked at the gate.
type gatedGetStore struct {
	Store
	release chan struct{}
	entered *atomic.Int64
}

func (g *gatedGetStore) Get(key []byte, tr *Transform) ([]*versioned.Versioned, error) {
	g.entered.Add(1)
	<-g.release
	return g.Store.Get(key, tr)
}

// TestRoutedGetAllBoundsGoroutines proves the routed GetAll holds its 16-way
// semaphore BEFORE spawning: a large key batch must not materialize one
// goroutine per key (all parked on the semaphore), only the bounded window.
func TestRoutedGetAllBoundsGoroutines(t *testing.T) {
	rig := newRig(t, 3, 12, 2, 1, 2, false)
	// The gate holds every replica read until the measurement is taken; the
	// replica timeout must outlast that however slowly the test is
	// scheduled, or timed-out keys would free their semaphore slots early.
	rig.routed.timeout = time.Minute
	release := make(chan struct{})
	var entered atomic.Int64
	for id, st := range rig.routed.stores {
		rig.routed.stores[id] = &gatedGetStore{Store: st, release: release, entered: &entered}
	}
	const nkeys = 400
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%d", i))
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := rig.routed.GetAll(keys)
		done <- err
	}()
	// Let the batch saturate the semaphore: the window is full once each of
	// the 16 admitted keys has parked its preferred replica reads at the gate.
	full := int64(16 * rig.def.PreferredReads)
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < full {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %d of %d replica reads reached the gate", entered.Load(), full)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	during := runtime.NumGoroutine()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Each of the ≤16 admitted keys may fan out replica goroutines inside
	// RoutedStore.Get; 400 unbounded spawns would show as ~400+.
	if growth := during - before; growth > 120 {
		t.Fatalf("GetAll grew goroutines by %d for %d keys; want bounded by the 16-way window", growth, nkeys)
	}
}
