package zk

// ChildWatch lists a znode's children while keeping at most one one-shot
// watch armed on them, for loops that wait on membership changes with a poll
// timeout as a backstop. zk disarms a watch only when it fires, so a loop
// that called WatchChildren again on every timeout would pile up watches on
// a quiet node. A ChildWatch re-arms only after the pending watch has fired
// and the loop has said so with Rearm; until then List is a plain read.
//
//	w := zk.NewChildWatch(sess, dir)
//	for {
//		kids, err := w.List()
//		...
//		select {
//		case <-w.Fired():
//			w.Rearm()
//		case <-time.After(poll):
//		}
//	}
type ChildWatch struct {
	sess  *Session
	dir   string
	fired <-chan Event // the armed watch; nil when none is
}

// NewChildWatch watches the children of dir through sess.
func NewChildWatch(sess *Session, dir string) *ChildWatch {
	return &ChildWatch{sess: sess, dir: dir}
}

// List returns dir's sorted children, arming the watch if none is pending.
func (w *ChildWatch) List() ([]string, error) {
	if w.fired != nil {
		return w.sess.Children(w.dir)
	}
	kids, ch, err := w.sess.WatchChildren(w.dir)
	if err != nil {
		return nil, err
	}
	w.fired = ch
	return kids, nil
}

// Fired is the armed watch's channel; nil (never ready in a select) when
// none is armed.
func (w *ChildWatch) Fired() <-chan Event { return w.fired }

// Rearm records that the loop received from Fired: the pending watch is
// spent, and the next List arms a new one.
func (w *ChildWatch) Rearm() { w.fired = nil }
