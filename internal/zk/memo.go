package zk

import "sync/atomic"

// Memo is a reader's decoded copy of one znode, kept current by Mzxid: every
// Get checks the live node, hands back the cached value while the node's
// Mzxid is unchanged, and decodes again only when it moves. A Get is
// therefore exactly as fresh as a plain Get plus decode, but the decode runs
// once per change instead of once per call.
//
// The snapshot sits behind an atomic pointer, so a hit takes no lock beyond
// the server lookup and allocates nothing. Decoded values are shared by
// every caller and must be treated as immutable.
type Memo[T any] struct {
	srv     *Server
	path    string
	parts   []string
	pathErr error
	decode  func([]byte) (T, error)
	cur     atomic.Pointer[memoSnap[T]]
}

// memoSnap is one decoded version of the node; never mutated once published.
type memoSnap[T any] struct {
	mzxid int64
	val   T
	err   error
}

// NewMemo returns a memo of the node at p read through sess, decoding its
// data with decode. The node need not exist yet.
func NewMemo[T any](sess *Session, p string, decode func([]byte) (T, error)) *Memo[T] {
	parts, err := splitPath(p)
	return &Memo[T]{srv: sess.srv, path: p, parts: parts, pathErr: err, decode: decode}
}

// Get returns the decoded value of the node as of now, with its current stat.
// A missing node returns ErrNoNode; a decode failure returns decode's error
// (and is itself remembered until the node changes).
func (m *Memo[T]) Get() (T, Stat, error) {
	var zero T
	if m.pathErr != nil {
		return zero, Stat{}, m.pathErr
	}
	snap := m.cur.Load()
	have := int64(-1)
	if snap != nil {
		have = snap.mzxid
	}
	data, stat, changed, err := m.srv.getIfChanged(m.parts, m.path, have)
	if err != nil {
		return zero, Stat{}, err
	}
	if !changed {
		return snap.val, stat, snap.err
	}
	val, err := m.decode(data)
	next := &memoSnap[T]{mzxid: stat.Mzxid, val: val, err: err}
	// Publish unless a concurrent Get already installed a newer version.
	for old := m.cur.Load(); old == nil || old.mzxid < next.mzxid; old = m.cur.Load() {
		if m.cur.CompareAndSwap(old, next) {
			break
		}
	}
	return val, stat, err
}
