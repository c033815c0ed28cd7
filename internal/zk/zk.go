// Package zk is an in-process coordination service with Zookeeper's
// semantics, the substrate Kafka's consumer groups (§V.C) and Helix (§IV.B)
// are built on: a hierarchical namespace of znodes supporting persistent,
// ephemeral and sequential nodes, one-shot watches on data and children, and
// compare-and-set writes.
//
// Ephemeral nodes are tied to a Session: closing the session removes them and
// fires the corresponding watches, which is exactly the liveness signal the
// paper's consumers and cluster managers rely on.
package zk

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Errors.
var (
	ErrNoNode         = errors.New("zk: node does not exist")
	ErrNodeExists     = errors.New("zk: node already exists")
	ErrNotEmpty       = errors.New("zk: node has children")
	ErrBadVersion     = errors.New("zk: version conflict")
	ErrSessionClosed  = errors.New("zk: session closed")
	ErrNoParent       = errors.New("zk: parent node does not exist")
	ErrEphemeralChild = errors.New("zk: ephemeral nodes cannot have children")
)

// EventType identifies what happened to a watched node.
type EventType int

// Watch event types.
const (
	EventCreated EventType = iota
	EventDeleted
	EventDataChanged
	EventChildrenChanged
	EventSessionExpired
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventDataChanged:
		return "dataChanged"
	case EventChildrenChanged:
		return "childrenChanged"
	case EventSessionExpired:
		return "sessionExpired"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is delivered on watch channels.
type Event struct {
	Type EventType
	Path string
}

// CreateFlag alters Create behaviour.
type CreateFlag int

// Creation flags (combinable).
const (
	FlagPersistent CreateFlag = 0
	FlagEphemeral  CreateFlag = 1
	FlagSequential CreateFlag = 2
)

// Stat carries node metadata.
type Stat struct {
	Version int
	// Mzxid is the zxid of the node's last create or set. Zxids come from
	// one server-wide counter bumped by every create, set and delete, so
	// unlike Version it never repeats for a path: a node deleted and
	// recreated gets a fresh Mzxid even though its Version restarts at 0.
	Mzxid       int64
	Ephemeral   bool
	NumChildren int
}

type znode struct {
	data      []byte
	version   int
	mzxid     int64
	ephemeral bool
	owner     *Session // for ephemerals
	children  map[string]*znode
	seq       int // sequential-child counter

	dataWatches  []chan Event
	childWatches []chan Event
}

// Server is the coordination service. A zero-value Server is not ready; use
// NewServer.
type Server struct {
	mu   sync.Mutex
	root *znode
	zxid int64 // last transaction id; bumped by every create, set and delete
}

// NewServer returns an empty namespace containing only "/".
func NewServer() *Server {
	return &Server{root: &znode{children: map[string]*znode{}}}
}

// Session is one client's connection; ephemerals die with it.
type Session struct {
	srv    *Server
	mu     sync.Mutex
	closed bool
	paths  map[string]bool // ephemeral paths owned
}

// NewSession opens a session.
func (s *Server) NewSession() *Session {
	return &Session{srv: s, paths: map[string]bool{}}
}

func splitPath(p string) ([]string, error) {
	if !strings.HasPrefix(p, "/") {
		return nil, fmt.Errorf("zk: path %q must be absolute", p)
	}
	clean := path.Clean(p)
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(strings.TrimPrefix(clean, "/"), "/"), nil
}

// lookup walks to the node at parts. Caller holds mu.
func (s *Server) lookup(parts []string) (*znode, error) {
	n := s.root
	for _, part := range parts {
		child, ok := n.children[part]
		if !ok {
			return nil, ErrNoNode
		}
		n = child
	}
	return n, nil
}

func notify(watches *[]chan Event, ev Event) {
	for _, ch := range *watches {
		select {
		case ch <- ev:
		default: // watcher not draining; drop rather than block the server
		}
	}
	*watches = nil // one-shot, like Zookeeper
}

// Create makes a node at p with data. With FlagSequential a monotonically
// increasing zero-padded suffix is appended; the actual path is returned.
func (sess *Session) Create(p string, data []byte, flags CreateFlag) (string, error) {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return "", ErrSessionClosed
	}
	sess.mu.Unlock()

	parts, err := splitPath(p)
	if err != nil {
		return "", err
	}
	if len(parts) == 0 {
		return "", ErrNodeExists
	}
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, err := s.lookup(parts[:len(parts)-1])
	if err != nil {
		return "", fmt.Errorf("%w: %s", ErrNoParent, path.Dir(p))
	}
	if parent.ephemeral {
		return "", ErrEphemeralChild
	}
	name := parts[len(parts)-1]
	if flags&FlagSequential != 0 {
		name = fmt.Sprintf("%s%010d", name, parent.seq)
		parent.seq++
	}
	if _, exists := parent.children[name]; exists {
		return "", fmt.Errorf("%w: %s", ErrNodeExists, p)
	}
	s.zxid++
	node := &znode{
		data:      append([]byte(nil), data...),
		mzxid:     s.zxid,
		ephemeral: flags&FlagEphemeral != 0,
		children:  map[string]*znode{},
	}
	if node.ephemeral {
		node.owner = sess
	}
	parent.children[name] = node
	full := "/" + strings.Join(append(append([]string{}, parts[:len(parts)-1]...), name), "/")
	if node.ephemeral {
		sess.mu.Lock()
		sess.paths[full] = true
		sess.mu.Unlock()
	}
	notify(&parent.childWatches, Event{Type: EventChildrenChanged, Path: path.Dir(full)})
	return full, nil
}

// Get returns the data and stat of the node at p.
func (sess *Session) Get(p string) ([]byte, Stat, error) {
	data, stat, _, err := sess.GetIfChanged(p, 0)
	return data, stat, err
}

// GetIfChanged is Get for a caller that already holds the node's data as of
// mzxid: when the node's Mzxid still equals mzxid it returns the current
// stat, no data and changed=false, so a reader that keeps a decoded copy pays
// only the lookup. Every created node's Mzxid is at least 1, so mzxid 0
// reads the data of any node but the (always empty) root.
func (sess *Session) GetIfChanged(p string, mzxid int64) (data []byte, stat Stat, changed bool, err error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, Stat{}, false, err
	}
	return sess.srv.getIfChanged(parts, p, mzxid)
}

func (s *Server) getIfChanged(parts []string, display string, mzxid int64) ([]byte, Stat, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(parts)
	if err != nil {
		return nil, Stat{}, false, fmt.Errorf("%w: %s", err, display)
	}
	if n.mzxid == mzxid {
		return nil, n.stat(), false, nil
	}
	return append([]byte(nil), n.data...), n.stat(), true, nil
}

func (n *znode) stat() Stat {
	return Stat{Version: n.version, Mzxid: n.mzxid, Ephemeral: n.ephemeral, NumChildren: len(n.children)}
}

// Exists reports whether p exists.
func (sess *Session) Exists(p string) (bool, error) {
	_, _, err := sess.Get(p)
	if errors.Is(err, ErrNoNode) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Set writes data to p. version must match the node's current version, or be
// -1 to skip the check (Zookeeper's CAS rule).
func (sess *Session) Set(p string, data []byte, version int) (Stat, error) {
	s := sess.srv
	parts, err := splitPath(p)
	if err != nil {
		return Stat{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(parts)
	if err != nil {
		return Stat{}, fmt.Errorf("%w: %s", err, p)
	}
	if version != -1 && version != n.version {
		return Stat{}, fmt.Errorf("%w: have %d, got %d", ErrBadVersion, n.version, version)
	}
	s.zxid++
	n.data = append([]byte(nil), data...)
	n.version++
	n.mzxid = s.zxid
	notify(&n.dataWatches, Event{Type: EventDataChanged, Path: p})
	return n.stat(), nil
}

// Delete removes the node at p; it must have no children. version follows
// the same CAS rule as Set.
func (sess *Session) Delete(p string, version int) error {
	s := sess.srv
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("zk: cannot delete root")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(parts, version, p)
}

func (s *Server) deleteLocked(parts []string, version int, display string) error {
	parent, err := s.lookup(parts[:len(parts)-1])
	if err != nil {
		return fmt.Errorf("%w: %s", err, display)
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, display)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, display)
	}
	if version != -1 && version != n.version {
		return fmt.Errorf("%w: have %d, got %d", ErrBadVersion, n.version, version)
	}
	s.zxid++
	delete(parent.children, name)
	if n.owner != nil {
		n.owner.mu.Lock()
		delete(n.owner.paths, display)
		n.owner.mu.Unlock()
	}
	notify(&n.dataWatches, Event{Type: EventDeleted, Path: display})
	notify(&parent.childWatches, Event{Type: EventChildrenChanged, Path: path.Dir(display)})
	return nil
}

// Children returns the sorted child names of p.
func (sess *Session) Children(p string) ([]string, error) {
	s := sess.srv
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, p)
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// WatchData registers a one-shot watch on p's data (fires on change or
// delete). The returned channel has capacity 1.
func (sess *Session) WatchData(p string) (<-chan Event, error) {
	s := sess.srv
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, p)
	}
	ch := make(chan Event, 1)
	n.dataWatches = append(n.dataWatches, ch)
	return ch, nil
}

// WatchChildren registers a one-shot watch on p's child list and returns the
// current children alongside it (the get-and-watch idiom).
func (sess *Session) WatchChildren(p string) ([]string, <-chan Event, error) {
	s := sess.srv
	parts, err := splitPath(p)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(parts)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s", err, p)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	ch := make(chan Event, 1)
	n.childWatches = append(n.childWatches, ch)
	return names, ch, nil
}

// PendingWatches reports how many one-shot watches are armed on p's data and
// on its child list (ZooKeeper's per-path watch listing). A watch is disarmed
// only when it fires, so a count that grows on an idle node is a leak.
func (s *Server) PendingWatches(p string) (data, children int, err error) {
	parts, err := splitPath(p)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(parts)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %s", err, p)
	}
	return len(n.dataWatches), len(n.childWatches), nil
}

// CreateAll creates every missing persistent node along p (mkdir -p).
func (sess *Session) CreateAll(p string, data []byte) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	for i := 1; i <= len(parts); i++ {
		sub := "/" + strings.Join(parts[:i], "/")
		var d []byte
		if i == len(parts) {
			d = data
		}
		if _, err := sess.Create(sub, d, FlagPersistent); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return nil
}

// Close expires the session: all its ephemeral nodes are removed (firing
// watches) and further operations fail.
func (sess *Session) Close() {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	sess.closed = true
	paths := make([]string, 0, len(sess.paths))
	for p := range sess.paths {
		paths = append(paths, p)
	}
	sess.mu.Unlock()

	// Delete deepest-first so parents empty out.
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range paths {
		parts, err := splitPath(p)
		if err != nil || len(parts) == 0 {
			continue
		}
		_ = s.deleteLocked(parts, -1, p)
	}
}
