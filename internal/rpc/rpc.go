// Package rpc is the shared pipelined request/response transport used by
// the Voldemort socket protocol and the Kafka broker protocol. Both systems
// are dominated by small RPCs (quorum reads/writes in §II, produce/fetch in
// §V), and real Kafka's wire protocol multiplexes many in-flight requests
// per connection via correlation IDs; this package brings the same shape to
// the reproduction, and it is the only framing either server speaks.
//
// Wire format: a connection opens with a 4-byte magic, a handshake that
// ServeConn checks before reading any frame; a peer that opens with anything
// else is dropped without a reply. Then both directions carry frames of
//
//	u32 length | u64 correlation id | payload
//
// where length counts the correlation id plus the payload. Responses may
// arrive in any order; the correlation id routes each one back to its
// caller. The payload is opaque to this package — Voldemort and Kafka carry
// their own request/response encodings inside it.
//
// Client side, a Conn runs one writer goroutine (coalescing queued frames
// into single writes) and one reader goroutine (demultiplexing responses to
// per-request channels), so many goroutines share one TCP connection with
// many requests in flight. A timed-out request abandons its slot without
// poisoning the connection: the late response is dropped by the reader when
// its id is no longer pending. Server side, ServeConn reads frames
// continuously, dispatches to a bounded worker pool, and writes possibly
// out-of-order responses through a single serialized writer that also
// supports streamed (sendfile-style) bodies.
package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
)

// Magic is the 4-byte preamble a client sends after dialing.
var Magic = [4]byte{'R', 'P', 'X', '1'}

// MaxFrame caps a frame's payload.
const MaxFrame = 64 << 20

// frame header: u32 length | u64 correlation id.
const headerLen = 12

var (
	// ErrFrameTooLarge is returned when a peer announces an oversized frame.
	ErrFrameTooLarge = errors.New("rpc: frame exceeds max size")
	// ErrClosed is returned for calls on an explicitly closed client.
	ErrClosed = errors.New("rpc: client closed")
	// errBadMagic is returned by ServeConn when the peer opens with
	// anything but Magic.
	errBadMagic = errors.New("rpc: connection did not open with the mux magic")
)

// appendFrame appends one wire frame for (id, payload) to dst.
func appendFrame(dst []byte, id uint64, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(8+len(payload)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...)
}

// readFrameHeader reads one frame header, returning the correlation id and
// payload length.
func readFrameHeader(r io.Reader, hdr *[headerLen]byte) (id uint64, n int, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length < 8 || length-8 > MaxFrame {
		return 0, 0, ErrFrameTooLarge
	}
	return binary.BigEndian.Uint64(hdr[4:12]), int(length - 8), nil
}

// timeoutError is the per-request timeout failure. It implements net.Error
// with Timeout() == true so resilience.IsTransient classifies it retryable,
// like a socket deadline.
type timeoutError struct{}

func (timeoutError) Error() string   { return "rpc: call timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrCallTimeout is returned by Call when the per-request timeout fires
// while responses keep flowing on the connection (the slot is abandoned,
// the connection stays usable).
var ErrCallTimeout net.Error = timeoutError{}

// stalledError marks a connection killed because nothing was received for a
// full request timeout — the transport is presumed dead, all in-flight
// requests fail, and the next call redials.
type stalledError struct{}

func (stalledError) Error() string   { return "rpc: connection stalled (no traffic for a full timeout)" }
func (stalledError) Timeout() bool   { return true }
func (stalledError) Temporary() bool { return true }

// ErrConnStalled is the error pending calls receive when a stall is detected.
var ErrConnStalled net.Error = stalledError{}
