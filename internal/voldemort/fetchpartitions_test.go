package voldemort

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"datainfra/internal/cluster"
	"datainfra/internal/ring"
	"datainfra/internal/versioned"
)

// TestFetchPartitionsUnknownStoreFails proves a fetch from a store the node
// does not host is an error, not an empty success a stealer would take as
// "nothing to copy".
func TestFetchPartitionsUnknownStoreFails(t *testing.T) {
	clus, _ := startCluster(t, 1, 4, nil)
	adm := NewAdmin(clus.NodeByID(0).Addr(), time.Second)
	n := 0
	err := adm.FetchPartitions("ghost", []int{0, 1, 2, 3}, func([]byte, []*versioned.Versioned) error {
		n++
		return nil
	})
	if !errors.Is(err, ErrUnknownStore) {
		t.Fatalf("FetchPartitions(unknown store) = %v after %d entries, want ErrUnknownStore", err, n)
	}
}

// TestRebalanceFailsInCopyPhaseWhenDonorLacksStore proves a failed copy
// stops the rebalance before the metadata flip: no node may be told the
// stealer owns a partition whose data never reached it.
func TestRebalanceFailsInCopyPhaseWhenDonorLacksStore(t *testing.T) {
	def := (&cluster.StoreDef{Name: "rb3", Replication: 1, RequiredReads: 1, RequiredWrites: 1}).WithDefaults()
	clus, servers := startCluster(t, 2, 8, def)
	if err := servers[0].DeleteStore("rb3"); err != nil {
		t.Fatal(err)
	}
	admins := map[int]*Admin{
		0: NewAdmin(clus.NodeByID(0).Addr(), time.Second),
		1: NewAdmin(clus.NodeByID(1).Addr(), time.Second),
	}
	p := clus.NodeByID(0).Partitions[0]
	rb := &Rebalancer{Admins: admins, Stores: []string{"rb3"}}
	if _, err := rb.Execute(clus, []Move{{Partition: p, From: 0, To: 1}}); !errors.Is(err, ErrUnknownStore) {
		t.Fatalf("Execute = %v, want a copy-phase ErrUnknownStore", err)
	}
	for id, adm := range admins {
		c, err := adm.GetCluster()
		if err != nil {
			t.Fatal(err)
		}
		if owner, err := c.OwnerOf(p); err != nil || owner.ID != 0 {
			t.Fatalf("node %d metadata: partition %d owner = %v (%v), want node 0", id, p, owner, err)
		}
	}
}

// startPageDropProxy forwards connections to target and counts them. The
// dropNth accepted connection (1-based; 0 drops none) is cut as soon as the
// server starts answering, so the server has served that page but the
// client never receives it. The admin client dials once per page, so the
// count is the number of page requests.
func startPageDropProxy(t *testing.T, target string, dropNth int32) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n := accepted.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer up.Close()
				go func() { _, _ = io.Copy(up, c) }()
				if n == dropNth {
					_, _ = up.Read(make([]byte, 1))
					return
				}
				_, _ = io.Copy(c, up)
			}(c)
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestFetchPartitionsPagesExactlyOnce loads several pages' worth of entries
// across all partitions and fetches half the partitions: every entry of
// those partitions must arrive exactly once, none from the others — also
// when the connection carrying a page is cut after the server served it and
// the page is requested again.
func TestFetchPartitionsPagesExactlyOnce(t *testing.T) {
	const partitions, keys = 8, 800
	def := (&cluster.StoreDef{Name: "pg", Replication: 1, RequiredReads: 1, RequiredWrites: 1}).WithDefaults()
	clus, servers := startCluster(t, 1, partitions, def)
	st, _ := servers[0].LocalStore("pg")
	value := make([]byte, 16<<10)
	want := map[string]bool{}
	requested := []int{1, 2, 5, 6}
	inRequested := map[int]bool{1: true, 2: true, 5: true, 6: true}
	wantBytes := 0
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := st.Engine().Put(k, versioned.New(value)); err != nil {
			t.Fatal(err)
		}
		if inRequested[ring.Hash(k, partitions)] {
			want[string(k)] = true
			wantBytes += len(value)
		}
	}
	if wantBytes < 3*fetchPageBudget {
		t.Fatalf("requested partitions hold %d bytes, want at least 3 pages of %d", wantBytes, fetchPageBudget)
	}

	for _, tc := range []struct {
		name    string
		dropNth int32
	}{{"clean", 0}, {"retried-page", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			addr, dials := startPageDropProxy(t, clus.NodeByID(0).Addr(), tc.dropNth)
			adm := NewAdmin(addr, 5*time.Second)
			seen := map[string]int{}
			err := adm.FetchPartitions("pg", requested, func(key []byte, vs []*versioned.Versioned) error {
				if len(vs) != 1 || len(vs[0].Value) != len(value) {
					return fmt.Errorf("key %s: bad version set", key)
				}
				seen[string(key)]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for k, n := range seen {
				if !want[k] {
					t.Fatalf("key %s from an unrequested partition", k)
				}
				if n != 1 {
					t.Fatalf("key %s delivered %d times", k, n)
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("got %d of %d entries", len(seen), len(want))
			}
			pages := dials.Load()
			if tc.dropNth > 0 {
				pages-- // the cut page was requested twice
			}
			if pages < 3 {
				t.Fatalf("fetch took %d pages, want at least 3", pages)
			}
		})
	}
}
