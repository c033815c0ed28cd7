package voldemort

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"datainfra/internal/cluster"
	"datainfra/internal/resilience"
	"datainfra/internal/rpc"
	"datainfra/internal/versioned"
)

// Admin is the client for a node's administrative service (§II.B): add and
// delete stores, fetch/delete partition data, update topology metadata and
// coordinate read-only swaps — all without downtime.
type Admin struct {
	addr    string
	timeout time.Duration
}

// NewAdmin returns an admin client for the node at addr.
func NewAdmin(addr string, timeout time.Duration) *Admin {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return &Admin{addr: addr, timeout: timeout}
}

// call dials a fresh mux connection for one request and closes it after the
// reply: admin operations are rare, so Admin keeps no connection state.
func (a *Admin) call(req *request) (*response, error) {
	conn, err := rpc.Dial(a.addr, a.timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	payload, err := conn.Call(req.encode(), a.timeout)
	if err != nil {
		return nil, err
	}
	return decodeResponse(payload)
}

func (a *Admin) simple(req *request) error {
	resp, err := a.call(req)
	if err != nil {
		return err
	}
	return resp.err()
}

// AddStore creates a store on the node.
func (a *Admin) AddStore(def *cluster.StoreDef) error {
	body, err := json.Marshal(def)
	if err != nil {
		return err
	}
	return a.simple(&request{Op: opAddStore, Body: body})
}

// DeleteStore removes a store from the node.
func (a *Admin) DeleteStore(name string) error {
	return a.simple(&request{Op: opDeleteStore, Store: name})
}

// ListStores returns the store names served by the node.
func (a *Admin) ListStores() ([]string, error) {
	resp, err := a.call(&request{Op: opListStores})
	if err != nil {
		return nil, err
	}
	if err := resp.err(); err != nil {
		return nil, err
	}
	var names []string
	return names, json.Unmarshal(resp.Payload, &names)
}

// GetCluster fetches the node's current topology metadata.
func (a *Admin) GetCluster() (*cluster.Cluster, error) {
	resp, err := a.call(&request{Op: opGetCluster})
	if err != nil {
		return nil, err
	}
	if err := resp.err(); err != nil {
		return nil, err
	}
	var c cluster.Cluster
	if err := json.Unmarshal(resp.Payload, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// UpdateCluster pushes new topology metadata to the node.
func (a *Admin) UpdateCluster(c *cluster.Cluster) error {
	body, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return a.simple(&request{Op: opUpdateCluster, Body: body})
}

// SwapReadOnly tells the node to atomically serve version v of a read-only
// store (the Swap phase of Figure II.3).
func (a *Admin) SwapReadOnly(store string, version int) error {
	return a.simple(&request{Op: opSwapReadOnly, Store: store, Body: []byte(strconv.Itoa(version))})
}

// RollbackReadOnly reverts a read-only store to its previous version.
func (a *Admin) RollbackReadOnly(store string) error {
	return a.simple(&request{Op: opRollbackRO, Store: store})
}

// FetchPartitions streams every entry of store whose primary partition is in
// partitions, invoking fn per entry. Used by rebalancing stealers. Entries
// arrive in pages in ascending key order; each page request names the
// immediate successor of the last key received (that key plus a zero byte)
// as its start, so the server keeps no cursor and a page lost to a timeout
// or a dropped connection is simply requested again.
func (a *Admin) FetchPartitions(store string, partitions []int, fn func(key []byte, vs []*versioned.Versioned) error) error {
	body, err := json.Marshal(partitions)
	if err != nil {
		return err
	}
	var start []byte
	for {
		req := &request{Op: opFetchPartitions, Store: store, Key: start, Body: body}
		resp, err := resilience.RetryValue(context.TODO(), resilience.Policy{}, func() (*response, error) {
			return a.call(req)
		})
		if err != nil {
			return err
		}
		if err := resp.err(); err != nil {
			return err
		}
		r := rbuf{b: resp.Payload}
		more, err := r.u8()
		if err != nil {
			return err
		}
		var last []byte
		for len(r.b) > 0 {
			key, err := r.bytes32()
			if err != nil {
				return err
			}
			data, err := r.bytes32()
			if err != nil {
				return err
			}
			vs, err := decodeVersionSet(data)
			if err != nil {
				return err
			}
			if err := fn(key, vs); err != nil {
				return err
			}
			last = key
		}
		if more == 0 {
			return nil
		}
		if last == nil {
			return fmt.Errorf("voldemort: fetch-partitions page promised more but held no entries")
		}
		start = append(last[:len(last):len(last)], 0)
	}
}

// DeletePartitions removes all keys with primary partitions in the set
// (donor cleanup after a completed migration).
func (a *Admin) DeletePartitions(store string, partitions []int) error {
	body, err := json.Marshal(partitions)
	if err != nil {
		return err
	}
	return a.simple(&request{Op: opDeletePartition, Store: store, Body: body})
}

// Move describes one rebalancing step: partition moves from donor to stealer.
type Move struct {
	Partition int
	From      int // donor node id
	To        int // stealer node id
}

// Rebalancer executes dynamic cluster membership changes (§II.B): partition
// ownership moves to new nodes while the cluster keeps serving. For each
// move it copies the partition's data from donor to stealer, then flips
// ownership in the topology metadata on every node, and finally cleans up
// the donor.
type Rebalancer struct {
	Admins map[int]*Admin // node id -> admin client
	Stores []string       // stores to migrate
}

// Execute runs the plan against base (the current topology), returning the
// updated topology that was installed on every node.
func (r *Rebalancer) Execute(base *cluster.Cluster, plan []Move) (*cluster.Cluster, error) {
	next := base.Clone()
	for _, m := range plan {
		owner, err := next.OwnerOf(m.Partition)
		if err != nil {
			return nil, err
		}
		if owner.ID != m.From {
			return nil, fmt.Errorf("voldemort: partition %d owned by node %d, plan says %d",
				m.Partition, owner.ID, m.From)
		}
		donor, ok := r.Admins[m.From]
		if !ok {
			return nil, fmt.Errorf("voldemort: no admin for donor node %d", m.From)
		}
		stealerAddr := next.NodeByID(m.To)
		if stealerAddr == nil {
			return nil, fmt.Errorf("voldemort: unknown stealer node %d", m.To)
		}
		// Copy phase: stream the partition from the donor into the stealer.
		for _, store := range r.Stores {
			dst := DialStore(store, stealerAddr.Addr(), 0)
			err := donor.FetchPartitions(store, []int{m.Partition}, func(key []byte, vs []*versioned.Versioned) error {
				for _, v := range vs {
					if err := dst.Put(key, v, nil); err != nil && !occurredErr(err) {
						return err
					}
				}
				return nil
			})
			dst.Close()
			if err != nil {
				return nil, fmt.Errorf("voldemort: copying %s partition %d: %w", store, m.Partition, err)
			}
		}
		if err := next.SetOwner(m.Partition, m.To); err != nil {
			return nil, err
		}
	}
	// Metadata flip: push the new topology to every node.
	for id, adm := range r.Admins {
		if err := adm.UpdateCluster(next); err != nil {
			return nil, fmt.Errorf("voldemort: updating metadata on node %d: %w", id, err)
		}
	}
	// Cleanup phase: donors drop the moved partitions.
	for _, m := range plan {
		donor := r.Admins[m.From]
		for _, store := range r.Stores {
			if err := donor.DeletePartitions(store, []int{m.Partition}); err != nil {
				return nil, fmt.Errorf("voldemort: donor cleanup node %d: %w", m.From, err)
			}
		}
	}
	return next, nil
}
