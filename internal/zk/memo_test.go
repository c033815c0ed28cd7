package zk

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMzxidAdvancesOnEveryWrite(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()

	if _, err := sess.Create("/a", []byte("1"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	_, created, _ := sess.Get("/a")
	if created.Mzxid < 1 {
		t.Fatalf("created Mzxid = %d, want >= 1", created.Mzxid)
	}
	// A write elsewhere moves the server's zxid but not /a's Mzxid.
	if _, err := sess.Create("/b", nil, FlagPersistent); err != nil {
		t.Fatal(err)
	}
	if _, st, _ := sess.Get("/a"); st.Mzxid != created.Mzxid {
		t.Fatalf("unrelated create moved /a's Mzxid: %d -> %d", created.Mzxid, st.Mzxid)
	}
	set, err := sess.Set("/a", []byte("2"), -1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Mzxid <= created.Mzxid+1 {
		t.Fatalf("Set Mzxid = %d, want > %d (create /b came in between)", set.Mzxid, created.Mzxid+1)
	}
}

func TestGetIfChangedSkipsCurrentData(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Create("/a", []byte("v0"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	data, st, changed, err := sess.GetIfChanged("/a", 0)
	if err != nil || !changed || string(data) != "v0" {
		t.Fatalf("first read = (%q, %v, %v)", data, changed, err)
	}
	data, st2, changed, err := sess.GetIfChanged("/a", st.Mzxid)
	if err != nil || changed || data != nil || st2 != st {
		t.Fatalf("current read = (%q, %+v, %v, %v), want no data and stat %+v", data, st2, changed, err, st)
	}
	if _, err := sess.Set("/a", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	data, _, changed, _ = sess.GetIfChanged("/a", st.Mzxid)
	if !changed || string(data) != "v1" {
		t.Fatalf("after Set = (%q, %v)", data, changed)
	}
	if _, _, _, err := sess.GetIfChanged("/missing", 0); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node err = %v", err)
	}
}

func countingMemo(sess *Session, p string, decodes *atomic.Int64) *Memo[int] {
	return NewMemo(sess, p, func(b []byte) (int, error) {
		decodes.Add(1)
		return strconv.Atoi(string(b))
	})
}

func TestMemoDecodesOncePerChange(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	var decodes atomic.Int64
	m := countingMemo(sess, "/n", &decodes)

	if _, _, err := m.Get(); !errors.Is(err, ErrNoNode) {
		t.Fatalf("memo of a missing node: err = %v", err)
	}
	if _, err := sess.Create("/n", []byte("7"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v, _, err := m.Get(); err != nil || v != 7 {
			t.Fatalf("Get = (%d, %v)", v, err)
		}
	}
	if n := decodes.Load(); n != 1 {
		t.Fatalf("decodes after 10 reads of one version = %d, want 1", n)
	}
	if _, err := sess.Set("/n", []byte("8"), -1); err != nil {
		t.Fatal(err)
	}
	if v, st, _ := m.Get(); v != 8 || st.Version != 1 {
		t.Fatalf("first Get after Set = (%d, %+v), want 8 at version 1", v, st)
	}
	if n := decodes.Load(); n != 2 {
		t.Fatalf("decodes = %d, want 2", n)
	}

	// A decode failure is returned, remembered, and cleared by the next write.
	if _, err := sess.Set("/n", []byte("x"), -1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := m.Get(); err == nil {
			t.Fatal("undecodable data returned no error")
		}
	}
	if n := decodes.Load(); n != 3 {
		t.Fatalf("decodes after a failed version = %d, want 3", n)
	}
	if _, err := sess.Set("/n", []byte("9"), -1); err != nil {
		t.Fatal(err)
	}
	if v, _, err := m.Get(); err != nil || v != 9 {
		t.Fatalf("Get after repair = (%d, %v)", v, err)
	}
}

// Deleting and recreating a node restarts its Version at 0; a memo keyed on
// Version would keep serving the old value. Mzxid never repeats.
func TestMemoSeesDeleteAndRecreate(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	var decodes atomic.Int64
	m := countingMemo(sess, "/n", &decodes)

	if _, err := sess.Create("/n", []byte("1"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	if v, st, _ := m.Get(); v != 1 || st.Version != 0 {
		t.Fatalf("Get = (%d, %+v)", v, st)
	}
	if err := sess.Delete("/n", -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Get of deleted node: err = %v", err)
	}
	if _, err := sess.Create("/n", []byte("2"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	if v, st, _ := m.Get(); v != 2 || st.Version != 0 {
		t.Fatalf("Get after recreate = (%d, %+v), want 2 at version 0", v, st)
	}
}

func TestMemoHitDoesNotAllocate(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	if err := sess.CreateAll("/a/b/c", []byte("42")); err != nil {
		t.Fatal(err)
	}
	var decodes atomic.Int64
	m := countingMemo(sess, "/a/b/c", &decodes)
	if _, _, err := m.Get(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Get() }); allocs != 0 {
		t.Fatalf("memo hit allocates %.1f times per Get", allocs)
	}
}

// Readers racing a writer never see a value older than the last write that
// completed before their Get began.
func TestMemoConcurrentReadersStayCurrent(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Create("/n", []byte("0"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	var decodes, written atomic.Int64
	m := countingMemo(sess, "/n", &decodes)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := written.Load()
				v, _, err := m.Get()
				if err != nil || int64(v) < floor {
					errs <- errors.New("stale or failed read: got " + strconv.Itoa(v) + ", floor " + strconv.FormatInt(floor, 10))
					return
				}
			}
		}()
	}
	for i := 1; i <= 500; i++ {
		if _, err := sess.Set("/n", []byte(strconv.Itoa(i)), -1); err != nil {
			t.Fatal(err)
		}
		written.Store(int64(i))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestPendingWatches(t *testing.T) {
	s := NewServer()
	sess := s.NewSession()
	defer sess.Close()
	if _, err := sess.Create("/d", nil, FlagPersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.WatchData("/d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.WatchChildren("/d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.WatchChildren("/d"); err != nil {
		t.Fatal(err)
	}
	if d, c, err := s.PendingWatches("/d"); err != nil || d != 1 || c != 2 {
		t.Fatalf("PendingWatches = (%d, %d, %v), want (1, 2)", d, c, err)
	}
	if _, err := sess.Create("/d/x", nil, FlagPersistent); err != nil {
		t.Fatal(err)
	}
	if d, c, _ := s.PendingWatches("/d"); d != 1 || c != 0 {
		t.Fatalf("after child create = (%d, %d), want (1, 0): child watches fire once", d, c)
	}
}
