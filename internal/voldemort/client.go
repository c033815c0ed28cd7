package voldemort

import (
	"fmt"
	"math/rand"
	"time"

	"datainfra/internal/versioned"
)

// Client is the application-facing API of Figure II.2:
//
//  1. VectorClock<V> get(K key)
//  2. put(K key, VectorClock<V> value)
//  3. VectorClock<V> get(K key, T transform)
//  4. put(K key, VectorClock<V> value, T transform)
//  5. applyUpdate(UpdateAction action, int retries)
//
// Conflict resolution of concurrent versions is delegated to the application
// via the Resolver; the default is last-writer-wins.
type Client struct {
	store    Store
	resolver Resolver
	nodeID   int32 // stamps client-generated clock increments
	now      func() time.Time
}

// NewClient wraps a store (typically a RoutedStore). resolver may be nil for
// LWW. clientID is the fallback clock-entry id when the store cannot name
// the key's master replica.
func NewClient(store Store, resolver Resolver, clientID int) *Client {
	if resolver == nil {
		resolver = LWWResolver
	}
	return &Client{store: store, resolver: resolver, nodeID: int32(clientID), now: time.Now}
}

// masterAware stores can name the master replica node for a key. Clients
// increment that node's clock entry so that two concurrent updates of the
// same key produce an *identical* new clock — making the second put fail
// with "already written vector clock" (§II.B optimistic locking) rather
// than silently forking siblings.
type masterAware interface {
	MasterNode(key []byte) int32
}

func (c *Client) clockID(key []byte) int32 {
	if m, ok := c.store.(masterAware); ok {
		return m.MasterNode(key)
	}
	return c.nodeID
}

// StoreName returns the bound store's name.
func (c *Client) StoreName() string { return c.store.Name() }

// GetVersions returns all concurrent versions — the raw form of API method 1.
func (c *Client) GetVersions(key []byte) ([]*versioned.Versioned, error) {
	return c.store.Get(key, nil)
}

// Get returns the resolved value for key, or (nil, false, nil) if absent.
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	vs, err := c.store.Get(key, nil)
	if err != nil {
		return nil, false, err
	}
	v := c.resolver(vs)
	if v == nil {
		return nil, false, nil
	}
	return v.Value, true, nil
}

// GetVersioned returns the resolved versioned value (clock included), which
// a caller mutates and passes back to PutVersioned for optimistic locking.
func (c *Client) GetVersioned(key []byte) (*versioned.Versioned, error) {
	vs, err := c.store.Get(key, nil)
	if err != nil {
		return nil, err
	}
	return c.resolver(vs), nil
}

// Put writes value under a clock that dominates everything currently
// readable — the common blind-write path (API method 2 with the version
// fetched implicitly).
func (c *Client) Put(key, value []byte) error {
	vs, err := c.store.Get(key, nil)
	if err != nil {
		return fmt.Errorf("voldemort: pre-put read: %w", err)
	}
	v := versioned.New(nil)
	for _, old := range vs {
		v.Clock = v.Clock.Merge(old.Clock)
	}
	v.Value = value
	v.Clock = v.Clock.Incremented(c.clockID(key), c.now().UnixMilli())
	return c.store.Put(key, v, nil)
}

// PutVersioned writes an explicitly versioned value; the caller owns the
// clock (obtained from GetVersioned and incremented). Two concurrent writers
// race: one succeeds, the other receives versioned.ErrObsoleteVersion — the
// optimistic-lock signal described in §II.B.
func (c *Client) PutVersioned(key []byte, v *versioned.Versioned) error {
	return c.store.Put(key, v, nil)
}

// GetWithTransform runs a server-side transform during the get (API method
// 3), e.g. retrieving a sub-list without shipping the whole value.
func (c *Client) GetWithTransform(key []byte, tr Transform) ([]byte, bool, error) {
	vs, err := c.store.Get(key, &tr)
	if err != nil {
		return nil, false, err
	}
	v := c.resolver(vs)
	if v == nil {
		return nil, false, nil
	}
	return v.Value, true, nil
}

// PutWithTransform merges value into the stored value server-side (API
// method 4), e.g. appending to a list, saving a client round trip.
func (c *Client) PutWithTransform(key, value []byte, tr Transform) error {
	v := versioned.With(value, nil)
	v.Clock = v.Clock.Incremented(c.clockID(key), c.now().UnixMilli())
	return c.store.Put(key, v, &tr)
}

// Delete removes the key's current versions.
func (c *Client) Delete(key []byte) (bool, error) {
	vs, err := c.store.Get(key, nil)
	if err != nil {
		return false, err
	}
	if len(vs) == 0 {
		return false, nil
	}
	clock := vs[0].Clock
	for _, v := range vs[1:] {
		clock = clock.Merge(v.Clock)
	}
	return c.store.Delete(key, clock)
}

// ApplyUpdate is API method 5: the "read, modify, write if no change" loop
// for counters and similar. action sees the current resolved version (nil if
// absent) and returns the new value; on an optimistic-lock conflict the loop
// backs off and retries up to retries times.
func (c *Client) ApplyUpdate(key []byte, retries int, action UpdateAction) error {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		vs, err := c.store.Get(key, nil)
		if err != nil {
			return fmt.Errorf("voldemort: applyUpdate read: %w", err)
		}
		cur := c.resolver(vs)
		newValue, err := action(cur)
		if err != nil {
			return err
		}
		v := versioned.New(nil)
		for _, old := range vs {
			v.Clock = v.Clock.Merge(old.Clock)
		}
		v.Value = newValue
		v.Clock = v.Clock.Incremented(c.clockID(key), c.now().UnixMilli())
		err = c.store.Put(key, v, nil)
		if err == nil {
			return nil
		}
		if !occurredErr(err) {
			return err
		}
		lastErr = err // concurrent writer won; retry with fresh state
		if attempt < retries {
			// The winner's write may still be on its way to the replica
			// that answers the next read; re-reading at once would see the
			// same stale version and spend the retries in microseconds.
			time.Sleep(conflictBackoff(attempt))
		}
	}
	return fmt.Errorf("voldemort: applyUpdate exhausted %d retries: %w", retries, lastErr)
}

// conflictBackoff is the pause after the n-th lost optimistic-lock race
// (n from 0): uniform in (0, 50µs·2^n], capped at 6.4ms, so competing
// writers decorrelate instead of colliding again in lockstep.
func conflictBackoff(n int) time.Duration {
	limit := int64(50*time.Microsecond) << min(n, 7)
	return time.Duration(rand.Int63n(limit) + 1)
}
