package voldemort

import (
	"encoding/binary"
	"errors"
	"fmt"

	"datainfra/internal/versioned"
)

// Wire protocol: every request and response is the payload of one
// internal/rpc mux frame. Requests carry an opcode plus length-prefixed
// fields; responses carry a status byte, an error message and a payload.

// Opcodes.
const (
	opPing            = 0
	opGet             = 1
	opPut             = 2
	opDelete          = 3
	opAddStore        = 11
	opDeleteStore     = 12
	opGetCluster      = 13
	opUpdateCluster   = 14
	opFetchPartitions = 15
	opDeletePartition = 16
	opListStores      = 17
	opSwapReadOnly    = 18
	opRollbackRO      = 19
	opGetAll          = 20
)

// Response status codes.
const (
	statusOK               = 0
	statusError            = 1
	statusObsolete         = 2
	statusUnknownStore     = 3
	statusUnknownTransform = 4
)

// buffer helpers ------------------------------------------------------------

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte) { w.b = append(w.b, v) }
func (w *wbuf) u16(v int) { w.b = binary.BigEndian.AppendUint16(w.b, uint16(v)) }
func (w *wbuf) u32(v int) { w.b = binary.BigEndian.AppendUint32(w.b, uint32(v)) }
func (w *wbuf) bytes16(p []byte) {
	w.u16(len(p))
	w.b = append(w.b, p...)
}
func (w *wbuf) str16(s string) {
	w.u16(len(s))
	w.b = append(w.b, s...)
}
func (w *wbuf) bytes32(p []byte) {
	w.u32(len(p))
	w.b = append(w.b, p...)
}

type rbuf struct{ b []byte }

var errShortBuffer = errors.New("voldemort: short buffer")

func (r *rbuf) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, errShortBuffer
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}
func (r *rbuf) u16() (int, error) {
	if len(r.b) < 2 {
		return 0, errShortBuffer
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return int(v), nil
}
func (r *rbuf) u32() (int, error) {
	if len(r.b) < 4 {
		return 0, errShortBuffer
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return int(v), nil
}
func (r *rbuf) bytes16() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if len(r.b) < n {
		return nil, errShortBuffer
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}
func (r *rbuf) bytes32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if len(r.b) < n {
		return nil, errShortBuffer
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

// request -------------------------------------------------------------------

type request struct {
	Op     byte
	Store  string
	Key    []byte
	Body   []byte
	TrName string
	TrArg  []byte
	Trace  string // optional trace ID, trailing field on the wire
}

func (q *request) encode() []byte {
	return q.appendTo(nil)
}

func (q *request) appendTo(b []byte) []byte {
	w := wbuf{b: b}
	w.u8(q.Op)
	w.str16(q.Store)
	w.bytes32(q.Key)
	w.bytes32(q.Body)
	w.str16(q.TrName)
	w.bytes32(q.TrArg)
	if q.Trace != "" {
		// Trailing optional field: absent frames decode with Trace == "",
		// and pre-trace decoders ignore trailing bytes — compatible both ways.
		w.str16(q.Trace)
	}
	return w.b
}

func decodeRequest(data []byte) (*request, error) {
	r := rbuf{b: data}
	var q request
	var err error
	if q.Op, err = r.u8(); err != nil {
		return nil, err
	}
	var s []byte
	if s, err = r.bytes16(); err != nil {
		return nil, err
	}
	q.Store = string(s)
	if q.Key, err = r.bytes32(); err != nil {
		return nil, err
	}
	if q.Body, err = r.bytes32(); err != nil {
		return nil, err
	}
	if s, err = r.bytes16(); err != nil {
		return nil, err
	}
	q.TrName = string(s)
	if q.TrArg, err = r.bytes32(); err != nil {
		return nil, err
	}
	if len(r.b) > 0 {
		if s, err = r.bytes16(); err != nil {
			return nil, err
		}
		q.Trace = string(s)
	}
	return &q, nil
}

// response ------------------------------------------------------------------

type response struct {
	Status  byte
	Message string
	Payload []byte
}

func (p *response) appendTo(b []byte) []byte {
	w := wbuf{b: b}
	w.u8(p.Status)
	w.str16(p.Message)
	w.bytes32(p.Payload)
	return w.b
}

func decodeResponse(data []byte) (*response, error) {
	r := rbuf{b: data}
	var p response
	var err error
	if p.Status, err = r.u8(); err != nil {
		return nil, err
	}
	var m []byte
	if m, err = r.bytes16(); err != nil {
		return nil, err
	}
	p.Message = string(m)
	if p.Payload, err = r.bytes32(); err != nil {
		return nil, err
	}
	return &p, nil
}

// err converts a response into a Go error mirroring the server-side failure.
func (p *response) err() error {
	switch p.Status {
	case statusOK:
		return nil
	case statusObsolete:
		return fmt.Errorf("%w: %s", versioned.ErrObsoleteVersion, p.Message)
	case statusUnknownStore:
		return fmt.Errorf("%w: %s", ErrUnknownStore, p.Message)
	case statusUnknownTransform:
		return fmt.Errorf("%w: %s", ErrUnknownTransform, p.Message)
	default:
		return fmt.Errorf("voldemort: remote error: %s", p.Message)
	}
}

func errToResponse(err error, payload []byte) *response {
	switch {
	case err == nil:
		return &response{Status: statusOK, Payload: payload}
	case occurredErr(err):
		return &response{Status: statusObsolete, Message: err.Error()}
	case errors.Is(err, ErrUnknownStore):
		return &response{Status: statusUnknownStore, Message: err.Error()}
	case errors.Is(err, ErrUnknownTransform):
		return &response{Status: statusUnknownTransform, Message: err.Error()}
	default:
		return &response{Status: statusError, Message: err.Error()}
	}
}

// multi-key encoding ----------------------------------------------------------

// encodeKeys packs a key list: u16 count, then u32-length-prefixed keys.
func encodeKeys(keys [][]byte) []byte {
	var w wbuf
	w.u16(len(keys))
	for _, k := range keys {
		w.bytes32(k)
	}
	return w.b
}

func decodeKeys(data []byte) ([][]byte, error) {
	r := rbuf{b: data}
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		k, err := r.bytes32()
		if err != nil {
			return nil, err
		}
		out = append(out, append([]byte(nil), k...))
	}
	return out, nil
}

// encodeKeyedVersionSets packs getAll results: u16 count, then per entry a
// u32-length key and a u32-length version-set blob.
func encodeKeyedVersionSets(entries map[string][]*versioned.Versioned) ([]byte, error) {
	var w wbuf
	w.u16(len(entries))
	for k, vs := range entries {
		data, err := encodeVersionSet(vs)
		if err != nil {
			return nil, err
		}
		w.bytes32([]byte(k))
		w.bytes32(data)
	}
	return w.b, nil
}

func decodeKeyedVersionSets(data []byte) (map[string][]*versioned.Versioned, error) {
	r := rbuf{b: data}
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*versioned.Versioned, n)
	for i := 0; i < n; i++ {
		k, err := r.bytes32()
		if err != nil {
			return nil, err
		}
		blob, err := r.bytes32()
		if err != nil {
			return nil, err
		}
		vs, err := decodeVersionSet(blob)
		if err != nil {
			return nil, err
		}
		out[string(k)] = vs
	}
	return out, nil
}

// version-set encoding --------------------------------------------------------

func encodeVersionSet(vs []*versioned.Versioned) ([]byte, error) {
	var w wbuf
	w.u16(len(vs))
	for _, v := range vs {
		b, err := v.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.bytes32(b)
	}
	return w.b, nil
}

func decodeVersionSet(data []byte) ([]*versioned.Versioned, error) {
	r := rbuf{b: data}
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	out := make([]*versioned.Versioned, 0, n)
	for i := 0; i < n; i++ {
		b, err := r.bytes32()
		if err != nil {
			return nil, err
		}
		var v versioned.Versioned
		if err := v.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		out = append(out, &v)
	}
	return out, nil
}
