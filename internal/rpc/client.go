package rpc

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// result is one demultiplexed response (or the connection's fatal error).
type result struct {
	payload []byte
	err     error
}

// outFrame is one request handed to the writer goroutine.
type outFrame struct {
	id      uint64
	payload []byte
}

// sendQueueDepth bounds the writer goroutine's input queue; a full queue
// backpressures callers onto the TCP connection's own flow control.
const sendQueueDepth = 128

// Conn is one multiplexed client connection: one writer goroutine coalescing
// queued request frames into single writes, one reader goroutine routing
// response frames to per-request channels by correlation id. Any number of
// goroutines may Call concurrently; each call occupies one pending slot
// until its response, timeout, or the connection's death.
type Conn struct {
	nc    net.Conn
	sendq chan outFrame

	mu      sync.Mutex
	pending map[uint64]chan result
	nextID  uint64
	err     error // set once the conn is dead

	dead     chan struct{}
	deadOnce sync.Once

	lastRecv atomic.Int64 // UnixNano of the last frame (or byte of progress) read
}

// NewConn starts the mux over nc. The caller must already have sent the
// Magic preamble (Dial does).
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:      nc,
		sendq:   make(chan outFrame, sendQueueDepth),
		pending: make(map[uint64]chan result),
		dead:    make(chan struct{}),
	}
	c.lastRecv.Store(time.Now().UnixNano())
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Dial connects to addr, sends the mux preamble, and returns the running Conn.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		_ = nc.SetWriteDeadline(time.Now().Add(timeout))
	}
	if _, err := nc.Write(Magic[:]); err != nil {
		nc.Close()
		return nil, err
	}
	_ = nc.SetWriteDeadline(time.Time{})
	mDials.Inc()
	return NewConn(nc), nil
}

// fail kills the connection exactly once: every pending and future call
// resolves with err, and both loops unwind.
func (c *Conn) fail(err error) {
	c.deadOnce.Do(func() {
		c.mu.Lock()
		c.err = err
		pend := c.pending
		c.pending = nil
		c.mu.Unlock()
		close(c.dead)
		c.nc.Close()
		for _, ch := range pend {
			ch <- result{err: err}
		}
		if len(pend) > 0 {
			mInflight.Add(-int64(len(pend)))
		}
	})
}

// Dead reports whether the connection has failed.
func (c *Conn) Dead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// Err returns the fatal error after Dead, nil before.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down, failing in-flight calls with ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// writeLoop drains the send queue, coalescing every queued frame into one
// buffer per wakeup so a burst of concurrent callers costs one syscall.
func (c *Conn) writeLoop() {
	buf := make([]byte, 0, 4096)
	for {
		select {
		case <-c.dead:
			return
		case f := <-c.sendq:
			mSendQueue.Dec()
			buf = appendFrame(buf[:0], f.id, f.payload)
		coalesce:
			for len(buf) < 256<<10 {
				select {
				case f2 := <-c.sendq:
					mSendQueue.Dec()
					buf = appendFrame(buf, f2.id, f2.payload)
				default:
					break coalesce
				}
			}
			if _, err := c.nc.Write(buf); err != nil {
				c.fail(err)
				return
			}
		}
	}
}

// readLoop demultiplexes response frames to their pending channels. Frames
// whose id is no longer pending belong to timed-out calls and are dropped.
// Reads are buffered so a burst of pipelined responses costs one syscall.
func (c *Conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var hdr [headerLen]byte
	for {
		id, n, err := readFrameHeader(br, &hdr)
		if err != nil {
			c.fail(err)
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			c.fail(err)
			return
		}
		c.lastRecv.Store(time.Now().UnixNano())
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- result{payload: payload}
			mInflight.Dec()
		}
	}
}

// forget abandons a pending slot, reporting whether it was still registered.
func (c *Conn) forget(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return false
	}
	if _, ok := c.pending[id]; !ok {
		return false
	}
	delete(c.pending, id)
	return true
}

// Call sends one request payload and blocks for its correlated response. A
// timeout abandons the slot without poisoning the connection — unless the
// connection received nothing at all for the whole wait, in which case it is
// presumed stalled and torn down, as a per-connection read deadline would.
// timeout <= 0 waits until the response or the connection's death.
func (c *Conn) Call(payload []byte, timeout time.Duration) ([]byte, error) {
	ch := make(chan result, 1)
	c.mu.Lock()
	if c.pending == nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	depth := len(c.pending)
	c.mu.Unlock()
	mInflight.Inc()
	observeDepth(depth)

	mSendQueue.Inc()
	select {
	case c.sendq <- outFrame{id: id, payload: payload}:
	case <-c.dead:
		mSendQueue.Dec()
		if c.forget(id) {
			mInflight.Dec()
			return nil, c.Err()
		}
		r := <-ch
		return r.payload, r.err
	}

	var timer *time.Timer
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-timeoutCh:
		if time.Since(time.Unix(0, c.lastRecv.Load())) >= timeout {
			// Nothing arrived on this connection for a full timeout: the
			// transport is presumed dead, not merely this request slow.
			c.fail(ErrConnStalled)
		}
		if c.forget(id) {
			mInflight.Dec()
			mTimeouts.Inc()
			return nil, ErrCallTimeout
		}
		// The response (or the conn's death) raced the timer; take it.
		r := <-ch
		return r.payload, r.err
	}
}

// Client is a redialing wrapper: it keeps one multiplexed Conn to addr,
// dialing lazily and replacing the connection after transport failures.
// Retry policy stays with the caller (the resilience layer), exactly as with
// the old per-call connection pool.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu     sync.Mutex
	conn   *Conn
	closed bool
}

// NewClient returns a client for addr; no connection is made until the
// first Call.
func NewClient(addr string, dialTimeout time.Duration) *Client {
	if dialTimeout == 0 {
		dialTimeout = 5 * time.Second
	}
	return &Client{addr: addr, dialTimeout: dialTimeout}
}

// acquire returns the live Conn, dialing a fresh one if needed.
func (cl *Client) acquire() (*Conn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClosed
	}
	if cl.conn != nil && !cl.conn.Dead() {
		return cl.conn, nil
	}
	if cl.conn != nil {
		mConnErrors.Inc()
	}
	conn, err := Dial(cl.addr, cl.dialTimeout)
	if err != nil {
		return nil, err
	}
	cl.conn = conn
	return conn, nil
}

// Call issues one request over the shared multiplexed connection.
func (cl *Client) Call(payload []byte, timeout time.Duration) ([]byte, error) {
	conn, err := cl.acquire()
	if err != nil {
		return nil, err
	}
	return conn.Call(payload, timeout)
}

// Close tears down the current connection and rejects future calls.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
	return nil
}
