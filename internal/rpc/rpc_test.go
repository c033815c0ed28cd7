package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves h on a fresh listener, handing every accepted conn to
// ServeConn like the production servers do, and returns its address.
func startServer(t *testing.T, h Handler, opts ServeOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				_ = ServeConn(nc, h, opts)
			}(nc)
		}
	}()
	return ln.Addr().String()
}

func echoHandler(payload []byte) Response {
	out := make([]byte, len(payload))
	copy(out, payload)
	return Response{Payload: out}
}

// TestMuxCorrelation hammers one shared connection from many goroutines;
// every response must match its own request byte-for-byte, proving the
// correlation-ID demux never crosses responses.
func TestMuxCorrelation(t *testing.T) {
	addr := startServer(t, echoHandler, ServeOptions{})
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const goroutines, calls = 32, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := []byte(fmt.Sprintf("g%d-call%d", g, i))
				resp, err := conn.Call(req, 5*time.Second)
				if err != nil {
					errs <- fmt.Errorf("g%d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(resp, req) {
					errs <- fmt.Errorf("g%d call %d: response %q crossed correlation ids", g, i, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxTimeoutAbandonsSlotWithoutPoisoningConn issues a slow request with
// a short timeout while fast requests keep flowing: the slow call times out,
// the connection survives, and the late response is silently dropped.
func TestMuxTimeoutAbandonsSlotWithoutPoisoningConn(t *testing.T) {
	release := make(chan struct{})
	h := func(payload []byte) Response {
		if string(payload) == "slow" {
			<-release
		}
		return echoHandler(payload)
	}
	addr := startServer(t, h, ServeOptions{})
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Keep traffic flowing so the stall detector doesn't fire.
	stopTraffic := make(chan struct{})
	var trafficWg sync.WaitGroup
	trafficWg.Add(1)
	go func() {
		defer trafficWg.Done()
		for {
			select {
			case <-stopTraffic:
				return
			default:
				_, _ = conn.Call([]byte("fast"), time.Second)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	_, err = conn.Call([]byte("slow"), 50*time.Millisecond)
	if err != ErrCallTimeout {
		t.Fatalf("slow call error = %v, want ErrCallTimeout", err)
	}
	if conn.Dead() {
		t.Fatal("timeout poisoned the connection")
	}
	close(release) // late response arrives, must be dropped harmlessly
	resp, err := conn.Call([]byte("after"), time.Second)
	if err != nil || string(resp) != "after" {
		t.Fatalf("post-timeout call = (%q, %v)", resp, err)
	}
	close(stopTraffic)
	trafficWg.Wait()
	if conn.Dead() {
		t.Fatal("connection died after dropped late response")
	}
}

// TestMuxStallKillsConn proves a connection that stops responding entirely
// is torn down on timeout (the stall detector), so calls do not spin on a
// black-holed transport forever.
func TestMuxStallKillsConn(t *testing.T) {
	// A listener that accepts and reads but never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := nc.Read(buf); err != nil {
						nc.Close()
						return
					}
				}
			}(nc)
		}
	}()
	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call([]byte("x"), 50*time.Millisecond); err == nil {
		t.Fatal("call on black-holed conn succeeded")
	}
	if !conn.Dead() {
		t.Fatal("stalled connection not torn down")
	}
}

// TestMuxConnKillFailsAllInflight kills the server-side connection while
// requests are in flight: every caller must resolve with an error, none hang.
func TestMuxConnKillFailsAllInflight(t *testing.T) {
	var conns struct {
		sync.Mutex
		list []net.Conn
	}
	block := make(chan struct{})
	h := func(payload []byte) Response {
		<-block
		return echoHandler(payload)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Lock()
			conns.list = append(conns.list, nc)
			conns.Unlock()
			go func(nc net.Conn) {
				_ = ServeConn(nc, h, ServeOptions{})
				nc.Close()
			}(nc)
		}
	}()

	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 20
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := conn.Call([]byte(fmt.Sprintf("req%d", i)), 10*time.Second)
			done <- err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the calls get in flight
	conns.Lock()
	for _, nc := range conns.list {
		nc.Close()
	}
	conns.Unlock()
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("in-flight call succeeded after conn kill")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("in-flight call %d never resolved after conn kill", i)
		}
	}
	close(block)
}

// TestMuxWorkerPoolBounded proves at most Workers handlers run concurrently
// on one connection.
func TestMuxWorkerPoolBounded(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	release := make(chan struct{})
	h := func(payload []byte) Response {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		cur.Add(-1)
		return echoHandler(payload)
	}
	addr := startServer(t, h, ServeOptions{Workers: workers})
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = conn.Call([]byte("x"), 10*time.Second)
		}()
	}
	// Wait until the pool saturates, then release everything.
	deadline := time.Now().Add(2 * time.Second)
	for peak.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // window for any over-spawn to show
	close(release)
	wg.Wait()
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrent handlers = %d, want exactly %d", p, workers)
	}
}

// TestMuxStreamedResponse exercises the zero-copy-style streamed body path.
func TestMuxStreamedResponse(t *testing.T) {
	body := strings.Repeat("stream-body-", 1000)
	h := func(payload []byte) Response {
		return Response{
			Payload:   []byte{0x7}, // status-style prefix
			Stream:    strings.NewReader(body),
			StreamLen: int64(len(body)),
		}
	}
	addr := startServer(t, h, ServeOptions{})
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := conn.Call([]byte("gimme"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1+len(body) || resp[0] != 0x7 || string(resp[1:]) != body {
		t.Fatalf("streamed response corrupt: %d bytes, first=%x", len(resp), resp[0])
	}
}

// TestClientRedialsAfterConnDeath proves the redialing Client transparently
// replaces a dead connection on the next call.
func TestClientRedialsAfterConnDeath(t *testing.T) {
	addr := startServer(t, echoHandler, ServeOptions{})
	cl := NewClient(addr, time.Second)
	defer cl.Close()

	resp, err := cl.Call([]byte("one"), time.Second)
	if err != nil || string(resp) != "one" {
		t.Fatalf("first call = (%q, %v)", resp, err)
	}
	cl.mu.Lock()
	cl.conn.fail(net.ErrClosed) // simulate transport death
	cl.mu.Unlock()
	resp, err = cl.Call([]byte("two"), time.Second)
	if err != nil || string(resp) != "two" {
		t.Fatalf("post-death call = (%q, %v)", resp, err)
	}
}

// TestServeConnRejectsNonMuxPreamble proves the magic is a handshake: a peer
// opening with anything else (here a lock-step length-prefixed frame) gets
// an error from ServeConn and not a byte of reply, while a client that sends
// the magic is served on the same listener.
func TestServeConnRejectsNonMuxPreamble(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	served := make(chan error, 1)
	go func() { served <- ServeConn(c2, echoHandler, ServeOptions{}) }()
	// A pipe write blocks until fully read, and ServeConn reads only the
	// preamble, so the write runs aside and fails once c2 closes.
	go func() { _, _ = c1.Write([]byte{0x00, 0x00, 0x00, 0x03, 'a', 'b', 'c'}) }()
	if err := <-served; !errors.Is(err, errBadMagic) {
		t.Fatalf("ServeConn = %v, want errBadMagic", err)
	}
	c2.Close()
	if n, err := c1.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("non-mux peer got a reply: (%d, %v)", n, err)
	}

	addr := startServer(t, echoHandler, ServeOptions{})
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if resp, err := conn.Call([]byte("hi"), time.Second); err != nil || string(resp) != "hi" {
		t.Fatalf("mux call = (%q, %v)", resp, err)
	}
}
