package voldemort

import (
	"context"
	"sync/atomic"
	"time"

	"datainfra/internal/resilience"
	"datainfra/internal/rpc"
	"datainfra/internal/trace"
	"datainfra/internal/vclock"
	"datainfra/internal/versioned"
)

// SocketStore is the client side of the binary protocol: a Store backed by a
// remote node. It is what the routed store uses for client-side routing. All
// requests share one multiplexed connection (internal/rpc): many calls are
// in flight at once, correlated by id, so concurrency does not cost one TCP
// connection per outstanding request. Transport failures (a dead
// connection, a node restarting mid-request) are retried a bounded number of
// times with jittered backoff before the error escapes to the routed store's
// quorum accounting — so a blip costs a few milliseconds, not a failed
// replica, while genuine outages still surface fast enough for the failure
// detector to ban the node (§II.B).
type SocketStore struct {
	storeName string
	timeout   time.Duration
	retry     resilience.Policy
	trace     atomic.Value // string; stamped on every outgoing request
	mux       *rpc.Client
}

// DialStore returns a SocketStore for storeName on the node at addr, using
// a single multiplexed connection shared by all concurrent calls.
func DialStore(storeName, addr string, timeout time.Duration) *SocketStore {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	return &SocketStore{
		storeName: storeName,
		timeout:   timeout,
		retry: resilience.Policy{
			MaxAttempts:    3,
			InitialBackoff: 2 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
		},
		mux: rpc.NewClient(addr, timeout),
	}
}

// SetRetryPolicy overrides the transport retry policy; call before first use.
func (s *SocketStore) SetRetryPolicy(p resilience.Policy) { s.retry = p }

// SetTrace stamps every subsequent request from this store with the trace
// ID (the client edge of trace propagation — see internal/trace). Pass ""
// to stop tracing. Safe for concurrent use; in-flight calls keep the ID
// they started with.
func (s *SocketStore) SetTrace(id string) { s.trace.Store(id) }

// Trace returns the currently stamped trace ID, if any.
func (s *SocketStore) Trace() string {
	id, _ := s.trace.Load().(string)
	return id
}

// Name returns the store name.
func (s *SocketStore) Name() string { return s.storeName }

// call sends one request and reads one response, retrying transport
// failures. A per-request timeout abandons the mux slot (the connection
// survives for the other in-flight calls) and surfaces as a transient
// net.Error, so it is retried like a dead connection. Retrying a put that
// actually landed is safe: the replica answers the replay with an
// obsolete-version conflict, which the quorum layer already counts as
// applied.
func (s *SocketStore) call(req *request) (*response, error) {
	if req.Trace == "" {
		req.Trace = s.Trace()
	}
	resp, err := resilience.RetryValue(context.Background(), s.retry, func() (*response, error) {
		payload, err := s.mux.Call(req.appendTo(nil), s.timeout)
		if err != nil {
			return nil, err
		}
		return decodeResponse(payload)
	})
	return resp, trace.Annotate(req.Trace, err)
}

// Ping checks node liveness (the failure detector's async probe).
func (s *SocketStore) Ping() error {
	resp, err := s.call(&request{Op: opPing})
	if err != nil {
		return err
	}
	return resp.err()
}

// Get fetches the version set for key.
func (s *SocketStore) Get(key []byte, tr *Transform) ([]*versioned.Versioned, error) {
	req := &request{Op: opGet, Store: s.storeName, Key: key}
	if tr != nil {
		req.TrName, req.TrArg = tr.Name, tr.Arg
	}
	resp, err := s.call(req)
	if err != nil {
		return nil, err
	}
	if err := resp.err(); err != nil {
		return nil, err
	}
	return decodeVersionSet(resp.Payload)
}

// Put writes a versioned value.
func (s *SocketStore) Put(key []byte, v *versioned.Versioned, tr *Transform) error {
	body, err := v.MarshalBinary()
	if err != nil {
		return err
	}
	req := &request{Op: opPut, Store: s.storeName, Key: key, Body: body}
	if tr != nil {
		req.TrName, req.TrArg = tr.Name, tr.Arg
	}
	resp, err := s.call(req)
	if err != nil {
		return err
	}
	return resp.err()
}

// Delete removes dominated versions.
func (s *SocketStore) Delete(key []byte, clock *vclock.Clock) (bool, error) {
	var body []byte
	if clock != nil {
		var err error
		body, err = clock.MarshalBinary()
		if err != nil {
			return false, err
		}
	}
	resp, err := s.call(&request{Op: opDelete, Store: s.storeName, Key: key, Body: body})
	if err != nil {
		return false, err
	}
	if err := resp.err(); err != nil {
		return false, err
	}
	return len(resp.Payload) == 1 && resp.Payload[0] == 1, nil
}

// Close drops the multiplexed connection; later calls fail.
func (s *SocketStore) Close() error {
	return s.mux.Close()
}
