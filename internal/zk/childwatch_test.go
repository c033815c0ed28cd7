package zk

import (
	"testing"
	"time"
)

func TestChildWatchKeepsOneWatchArmed(t *testing.T) {
	srv := NewServer()
	sess := srv.NewSession()
	defer sess.Close()
	dir := "/members"
	if err := sess.CreateAll(dir, nil); err != nil {
		t.Fatal(err)
	}
	w := NewChildWatch(sess, dir)
	for tick := 0; tick < 100; tick++ { // idle ticks: the watch never fires
		if _, err := w.List(); err != nil {
			t.Fatal(err)
		}
	}
	if _, n, _ := srv.PendingWatches(dir); n != 1 {
		t.Fatalf("child watches after 100 idle ticks = %d, want 1", n)
	}

	if _, err := sess.Create(dir+"/m1", nil, FlagPersistent); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.Fired():
		if ev.Type != EventChildrenChanged {
			t.Fatalf("event = %v", ev.Type)
		}
		w.Rearm()
	case <-time.After(time.Second):
		t.Fatal("membership change did not fire the watch")
	}
	if _, n, _ := srv.PendingWatches(dir); n != 0 {
		t.Fatalf("child watches after the change = %d, want 0 (exactly one fired)", n)
	}
	kids, err := w.List()
	if err != nil || len(kids) != 1 || kids[0] != "m1" {
		t.Fatalf("list after change = (%v, %v)", kids, err)
	}
	if _, n, _ := srv.PendingWatches(dir); n != 1 {
		t.Fatalf("child watches after re-arming = %d, want 1", n)
	}
}
