package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Response is one handler result. Payload is written first; when Stream is
// non-nil, StreamLen further bytes are copied from it directly to the
// socket after the buffered header is flushed — the zero-copy path for
// Kafka fetches (io.Copy from an *os.File section uses sendfile on Linux).
// The handler must guarantee Stream yields exactly StreamLen bytes; a short
// stream corrupts the framing and kills the connection.
type Response struct {
	Payload   []byte
	Stream    io.Reader
	StreamLen int64
}

// Handler processes one request payload into a response. Handlers run
// concurrently on the per-connection worker pool and must be safe for
// concurrent use.
type Handler func(payload []byte) Response

// ServeOptions tunes a per-connection server mux.
type ServeOptions struct {
	// Workers bounds concurrent handler invocations per connection;
	// default 16. Long-blocking handlers (long-poll fetches) each occupy
	// one worker.
	Workers int
	// Queue bounds requests read but not yet picked up by a worker;
	// default 64. A full queue stops the read loop, pushing backpressure
	// into TCP flow control.
	Queue int
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.Workers <= 0 {
		o.Workers = 16
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	return o
}

type job struct {
	id      uint64
	payload []byte
}

type outResp struct {
	id   uint64
	resp Response
}

// ServeConn runs the server half of the mux over nc until the peer
// disconnects: it first checks the Magic preamble (any other opening returns
// an error before a byte is written back), then the calling goroutine reads
// frames continuously, a bounded worker pool dispatches them to h, and one
// writer goroutine serializes the possibly out-of-order responses. ServeConn
// does not close nc.
func ServeConn(nc net.Conn, h Handler, opts ServeOptions) error {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(nc, magic[:]); err != nil {
		return err
	}
	if magic != Magic {
		return errBadMagic
	}
	opts = opts.withDefaults()
	reqCh := make(chan job, opts.Queue)
	respCh := make(chan outResp, opts.Queue)

	// Serialized writer: frames are buffered and flushed when the response
	// queue momentarily drains, so bursts of small responses coalesce into
	// few syscalls. On a write error the conn is closed (which also stops
	// the read loop) and the remaining responses are drained and dropped.
	var writeErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(nc, 32<<10)
		var hdr [headerLen]byte
		for out := range respCh {
			if writeErr != nil {
				continue // draining after failure
			}
			n := len(out.resp.Payload)
			total := int64(n) + out.resp.StreamLen
			if total > MaxFrame {
				writeErr = ErrFrameTooLarge
				nc.Close()
				continue
			}
			binary.BigEndian.PutUint32(hdr[0:4], uint32(8+total))
			binary.BigEndian.PutUint64(hdr[4:12], out.id)
			if _, err := bw.Write(hdr[:]); err != nil {
				writeErr = err
				nc.Close()
				continue
			}
			if _, err := bw.Write(out.resp.Payload); err != nil {
				writeErr = err
				nc.Close()
				continue
			}
			if out.resp.Stream != nil && out.resp.StreamLen > 0 {
				// Flush the buffered header so the stream can go straight
				// to the socket (sendfile-style for file sections).
				if err := bw.Flush(); err != nil {
					writeErr = err
					nc.Close()
					continue
				}
				copied, err := io.Copy(nc, io.LimitReader(out.resp.Stream, out.resp.StreamLen))
				if err == nil && copied != out.resp.StreamLen {
					err = fmt.Errorf("rpc: streamed response short: %d of %d bytes", copied, out.resp.StreamLen)
				}
				if err != nil {
					writeErr = err
					nc.Close()
					continue
				}
			}
			if len(respCh) == 0 {
				if err := bw.Flush(); err != nil {
					writeErr = err
					nc.Close()
				}
			}
		}
		if writeErr == nil {
			writeErr = bw.Flush()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range reqCh {
				mServerQueue.Dec()
				mServerInflight.Inc()
				resp := h(j.payload)
				mServerInflight.Dec()
				mServerRequests.Inc()
				respCh <- outResp{id: j.id, resp: resp}
			}
		}()
	}

	// Read loop: one frame per iteration, each with its own payload buffer
	// (handlers run concurrently, so per-connection buffer reuse would race).
	// Reads are buffered: a pipelined burst of small frames costs one read
	// syscall, not two per frame.
	br := bufio.NewReaderSize(nc, 64<<10)
	var readErr error
	var hdr [headerLen]byte
	for {
		id, n, err := readFrameHeader(br, &hdr)
		if err != nil {
			readErr = err
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			readErr = err
			break
		}
		mServerQueue.Inc()
		reqCh <- job{id: id, payload: payload}
	}
	close(reqCh)
	wg.Wait()
	close(respCh)
	<-writerDone

	if readErr == io.EOF {
		readErr = nil // clean disconnect
	}
	if writeErr != nil {
		return writeErr
	}
	return readErr
}
