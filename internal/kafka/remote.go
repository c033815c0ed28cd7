package kafka

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"datainfra/internal/resilience"
	"datainfra/internal/rpc"
)

// RemoteBroker is a BrokerClient over the TCP protocol. Every request shares
// one multiplexed connection (internal/rpc) with many requests in flight,
// correlated by id — including long-poll fetches, which park server-side
// without blocking the other requests on the connection. Transport failures
// (dead connections, broker restarts, timeouts) are retried through the
// resilience layer with exponential backoff and full jitter, behind a
// circuit breaker that fails fast while the broker stays unreachable — the
// §V story of producers and consumers riding out broker reconnects.
// Application-level responses (error frames such as offset-out-of-range) are
// never retried.
type RemoteBroker struct {
	timeout time.Duration
	retry   resilience.Policy
	breaker *resilience.Breaker
	mux     *rpc.Client
}

// DialBroker connects lazily to the broker at addr, using a single
// multiplexed connection shared by all concurrent requests.
func DialBroker(addr string, timeout time.Duration) *RemoteBroker {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	return &RemoteBroker{
		timeout: timeout,
		retry: resilience.Policy{
			MaxAttempts:    4,
			InitialBackoff: 2 * time.Millisecond,
			MaxBackoff:     100 * time.Millisecond,
		},
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: 8,
			OpenTimeout:      250 * time.Millisecond,
		}),
		mux: rpc.NewClient(addr, timeout),
	}
}

// SetRetryPolicy overrides the transport retry policy (tests, aggressive
// clients). It must be called before the first request.
func (r *RemoteBroker) SetRetryPolicy(p resilience.Policy) { r.retry = p }

// call sends one request and reads its response, retrying transport
// failures. A mux timeout abandons the request slot (the connection survives
// for other in-flight requests) and surfaces as a transient net.Error, so it
// is retried like a dead connection.
func (r *RemoteBroker) call(req []byte) ([]byte, error) {
	return r.callTimeout(req, r.timeout)
}

// callTimeout is call with an explicit per-request timeout — long-poll
// fetches need room for the server-side wait on top of the transport budget.
func (r *RemoteBroker) callTimeout(req []byte, timeout time.Duration) ([]byte, error) {
	return resilience.RetryValue(context.Background(), r.retry, func() ([]byte, error) {
		if err := r.breaker.Allow(); err != nil {
			return nil, err
		}
		body, err := r.mux.Call(req, timeout)
		if err == nil {
			body, err = parseStatus(body)
		}
		if err != nil && resilience.IsTransient(err) {
			r.breaker.Record(err)
		} else {
			// Success, or an application error: the broker is reachable.
			r.breaker.Record(nil)
		}
		return body, err
	})
}

// wireErrors maps error-frame substrings back to the package's typed errors:
// a typed error crossing the TCP boundary arrives as text, and the routing
// retry classifier (retryableRouted) needs the type back to ride out
// failovers and ISR shrinks instead of surfacing them as hard failures.
var wireErrors = []struct {
	sub string
	err error
}{
	{"offset out of range", ErrOffsetOutOfRange},
	{"not the partition leader", ErrNotLeader},
	{"not enough in-sync replicas", ErrNotEnoughReplicas},
	{"timed out waiting for replica acks", ErrAckTimeout},
	{"no leader elected", errNoLeader},
}

// parseStatus strips the status byte off a response body, mapping error
// frames to errors.
func parseStatus(body []byte) ([]byte, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("kafka: empty response frame")
	}
	if body[0] != 0 {
		msg := string(body[1:])
		for _, w := range wireErrors {
			if strings.Contains(msg, w.sub) {
				return nil, fmt.Errorf("%w: %s", w.err, msg)
			}
		}
		return nil, errors.New("kafka: " + msg)
	}
	return body[1:], nil
}

func reqHeader(op byte, topic string) []byte {
	buf := make([]byte, 0, 3+len(topic))
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(topic)))
	return append(buf, topic...)
}

// Produce implements BrokerClient. Transport retries make delivery
// at-least-once: a produce whose connection died after the broker appended
// but before the ack is re-sent, matching the paper's delivery guarantee
// ("messages are guaranteed to be delivered at least once", §V.D).
func (r *RemoteBroker) Produce(topic string, partition int, set MessageSet) (int64, error) {
	req := reqHeader(brokerOpProduce, topic)
	req = binary.BigEndian.AppendUint32(req, uint32(partition))
	req = append(req, set.Bytes()...)
	resp, err := r.call(req)
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("kafka: bad produce response")
	}
	return int64(binary.BigEndian.Uint64(resp)), nil
}

// Fetch implements BrokerClient.
func (r *RemoteBroker) Fetch(topic string, partition int, offset int64, maxBytes int) ([]byte, error) {
	req := reqHeader(brokerOpFetch, topic)
	req = binary.BigEndian.AppendUint32(req, uint32(partition))
	req = binary.BigEndian.AppendUint64(req, uint64(offset))
	req = binary.BigEndian.AppendUint32(req, uint32(maxBytes))
	return r.call(req)
}

// FetchWait implements BlockingFetcher: a fetch that long-polls server-side
// when the partition is caught up, so a consumer at the log tail parks on
// the broker instead of sleep-polling. The per-request timeout is widened to
// cover the server wait; over the mux the parked request does not block the
// connection's other traffic.
func (r *RemoteBroker) FetchWait(topic string, partition int, offset int64, maxBytes int, wait time.Duration) ([]byte, error) {
	req := reqHeader(brokerOpFetchWait, topic)
	req = binary.BigEndian.AppendUint32(req, uint32(partition))
	req = binary.BigEndian.AppendUint64(req, uint64(offset))
	req = binary.BigEndian.AppendUint32(req, uint32(maxBytes))
	req = binary.BigEndian.AppendUint32(req, uint32(wait/time.Millisecond))
	return r.callTimeout(req, r.timeout+wait)
}

// ReplicaFetch pulls raw log bytes for replication: uncapped by the high
// watermark, long-polling at the durable tail, returning the leader's current
// high watermark alongside the chunk. follower names the fetching replica so
// the leader tracks its position for ISR accounting; epoch fences the fetch
// against stale leadership (the serving broker rejects a mismatched epoch).
func (r *RemoteBroker) ReplicaFetch(topic string, partition int, offset int64, maxBytes int, wait time.Duration, follower string, epoch int) (int64, []byte, error) {
	req := reqHeader(brokerOpReplicaFetch, topic)
	req = binary.BigEndian.AppendUint32(req, uint32(partition))
	req = binary.BigEndian.AppendUint64(req, uint64(offset))
	req = binary.BigEndian.AppendUint32(req, uint32(maxBytes))
	req = binary.BigEndian.AppendUint32(req, uint32(wait/time.Millisecond))
	req = binary.BigEndian.AppendUint32(req, uint32(epoch))
	req = binary.BigEndian.AppendUint16(req, uint16(len(follower)))
	req = append(req, follower...)
	resp, err := r.callTimeout(req, r.timeout+wait)
	if err != nil {
		return 0, nil, err
	}
	if len(resp) < 8 {
		return 0, nil, fmt.Errorf("kafka: bad replica fetch response")
	}
	hw := int64(binary.BigEndian.Uint64(resp[:8]))
	return hw, resp[8:], nil
}

// Offsets implements BrokerClient.
func (r *RemoteBroker) Offsets(topic string, partition int) (int64, int64, error) {
	req := reqHeader(brokerOpOffsets, topic)
	req = binary.BigEndian.AppendUint32(req, uint32(partition))
	resp, err := r.call(req)
	if err != nil {
		return 0, 0, err
	}
	if len(resp) != 16 {
		return 0, 0, fmt.Errorf("kafka: bad offsets response")
	}
	return int64(binary.BigEndian.Uint64(resp[0:8])), int64(binary.BigEndian.Uint64(resp[8:16])), nil
}

// Partitions implements BrokerClient.
func (r *RemoteBroker) Partitions(topic string) (int, error) {
	resp, err := r.call(reqHeader(brokerOpPartitions, topic))
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(resp))
}

// Close drops the multiplexed connection; later requests fail.
func (r *RemoteBroker) Close() {
	r.mux.Close()
}
