package helix

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datainfra/internal/zk"
)

// Partition keys travel as decimal strings and come back as ints; anything
// else is rejected.
func TestAssignmentJSONPartitionKeys(t *testing.T) {
	a := Assignment{
		0:  {"n1": StateMaster, "n2": StateSlave},
		7:  {"n2": StateLeader},
		12: {},
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"0":{"n1":"MASTER","n2":"SLAVE"},"12":{},"7":{"n2":"LEADER"}}`; string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
	var back Assignment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Fatalf("round trip = %v, want %v", back, a)
	}
	for _, bad := range []string{`{"x":{}}`, `{"1x":{}}`, `{"":{}}`} {
		err := json.Unmarshal([]byte(bad), &back)
		if err == nil || !strings.Contains(err.Error(), "bad partition key") {
			t.Errorf("Unmarshal(%s) err = %v, want bad partition key", bad, err)
		}
	}
}

// writeView publishes an external view by hand, as the controller would.
func writeView(t *testing.T, sess *zk.Session, cluster, resource string, a Assignment) {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	p := base(cluster) + "/externalview/" + resource
	if ok, _ := sess.Exists(p); !ok {
		if err := sess.CreateAll(p, data); err != nil {
			t.Fatal(err)
		}
		return
	}
	if _, err := sess.Set(p, data, -1); err != nil {
		t.Fatal(err)
	}
}

func TestSpectatorFollowsViewChanges(t *testing.T) {
	srv := zk.NewServer()
	w := srv.NewSession()
	defer w.Close()
	spec := NewSpectator(srv, "sv")
	defer spec.Close()

	if _, err := spec.MasterOf("db", 0); !errors.Is(err, zk.ErrNoNode) {
		t.Fatalf("MasterOf before any view: err = %v", err)
	}
	writeView(t, w, "sv", "db", Assignment{0: {"a": StateMaster, "b": StateSlave}})
	if inst, err := spec.MasterOf("db", 0); err != nil || inst != "a" {
		t.Fatalf("MasterOf = (%q, %v), want a", inst, err)
	}
	// The first call after a failover sees the new master.
	writeView(t, w, "sv", "db", Assignment{0: {"b": StateMaster}})
	if inst, err := spec.MasterOf("db", 0); err != nil || inst != "b" {
		t.Fatalf("MasterOf after view change = (%q, %v), want b", inst, err)
	}
	if _, err := spec.MasterOf("db", 1); err == nil {
		t.Fatal("MasterOf of an unassigned partition succeeded")
	}

	// ExternalView hands out a copy: mutating it cannot corrupt routing.
	view, err := spec.ExternalView("db")
	if err != nil {
		t.Fatal(err)
	}
	view[0]["b"] = StateSlave
	if inst, err := spec.MasterOf("db", 0); err != nil || inst != "b" {
		t.Fatalf("MasterOf after mutating a returned view = (%q, %v), want b", inst, err)
	}

	// Delete and recreate a view read at Version 0: the new znode's Version
	// is 0 again, its Mzxid is not, and the spectator must notice.
	writeView(t, w, "sv", "db2", Assignment{0: {"a": StateMaster}})
	if inst, err := spec.MasterOf("db2", 0); err != nil || inst != "a" {
		t.Fatalf("MasterOf(db2) = (%q, %v), want a", inst, err)
	}
	p := base("sv") + "/externalview/db2"
	if err := w.Delete(p, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.MasterOf("db2", 0); !errors.Is(err, zk.ErrNoNode) {
		t.Fatalf("MasterOf after delete: err = %v", err)
	}
	writeView(t, w, "sv", "db2", Assignment{0: {"c": StateMaster}})
	if _, st, _ := w.Get(p); st.Version != 0 {
		t.Fatalf("recreated view version = %d, want 0", st.Version)
	}
	if inst, err := spec.MasterOf("db2", 0); err != nil || inst != "c" {
		t.Fatalf("MasterOf after recreate = (%q, %v), want c", inst, err)
	}
}

func TestExternalViewWrittenOnlyOnChange(t *testing.T) {
	srv := zk.NewServer()
	ctrl, err := NewController(srv, "ev")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	parts := map[string]*Participant{}
	for i := 0; i < 2; i++ {
		p, err := NewParticipant(srv, "ev", fmt.Sprintf("node-%d", i), &tracker{})
		if err != nil {
			t.Fatal(err)
		}
		parts[p.Instance()] = p
		defer p.Close()
	}
	ctrl.AddResource(&Resource{Name: "db", NumPartitions: 2, Replicas: 2})
	ctrl.Start()

	spec := NewSpectator(srv, "ev")
	defer spec.Close()
	sess := srv.NewSession()
	defer sess.Close()
	viewPath := base("ev") + "/externalview/db"
	waitFor(t, "converged view", 5*time.Second, func() bool {
		view, err := spec.ExternalView("db")
		if err != nil || len(view) != 2 {
			return false
		}
		for _, m := range view {
			if len(m) != 2 {
				return false
			}
		}
		_, ok0 := view.MasterOf(0)
		_, ok1 := view.MasterOf(1)
		return ok0 && ok1
	})
	_, idle, err := sess.Get(viewPath)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second) // ~20 rebalance ticks
	if _, st, _ := sess.Get(viewPath); st.Mzxid != idle.Mzxid {
		t.Fatalf("idle cluster rewrote its view: Mzxid %d -> %d (version %d -> %d)", idle.Mzxid, st.Mzxid, idle.Version, st.Version)
	}

	victim, err := spec.MasterOf("db", 0)
	if err != nil {
		t.Fatal(err)
	}
	parts[victim].Close()
	waitFor(t, "master failover", 5*time.Second, func() bool {
		inst, err := spec.MasterOf("db", 0)
		return err == nil && inst != victim
	})
	if _, st, _ := sess.Get(viewPath); st.Mzxid == idle.Mzxid {
		t.Fatal("failover did not rewrite the view")
	}
}

// The three idle loops (controller rebalance, participant message pump,
// health monitor) each keep one watch armed however many polls they make.
func TestIdleLoopsDoNotLeakWatches(t *testing.T) {
	srv := zk.NewServer()
	ctrl, err := NewController(srv, "idle")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	p, err := NewParticipant(srv, "idle", "solo", &tracker{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mon := NewHealthMonitor(srv, "idle", 1)
	defer mon.Close()
	ctrl.AddResource(&Resource{Name: "db", NumPartitions: 1, Replicas: 1})
	ctrl.Start()
	waitFor(t, "mastering", 5*time.Second, func() bool { return p.States("db")[0] == StateMaster })

	time.Sleep(700 * time.Millisecond) // 14 controller and 7 participant polls
	if _, n, _ := srv.PendingWatches(base("idle") + "/instances"); n != 2 {
		t.Fatalf("watches on instances = %d, want 2 (controller and health monitor)", n)
	}
	if _, n, _ := srv.PendingWatches(messagesDir("idle", "solo")); n != 1 {
		t.Fatalf("watches on the participant's messages = %d, want 1", n)
	}
}

// Routers keep calling MasterOf while masters fail over; run under -race.
func TestSpectatorConcurrentReadsDuringFailovers(t *testing.T) {
	srv := zk.NewServer()
	ctrl, err := NewController(srv, "cf")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	const partitions = 4
	ctrl.AddResource(&Resource{Name: "db", NumPartitions: partitions, Replicas: 2})
	ctrl.Start()

	var mu sync.Mutex
	live := map[string]*Participant{}
	join := func(name string) {
		p, err := NewParticipant(srv, "cf", name, &tracker{})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		live[name] = p
		mu.Unlock()
	}
	for i := 0; i < 3; i++ {
		join(fmt.Sprintf("node-%d", i))
	}
	defer func() {
		for _, p := range live {
			p.Close()
		}
	}()

	spec := NewSpectator(srv, "cf")
	defer spec.Close()
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				inst, err := spec.MasterOf("db", i%partitions)
				if err == nil && !strings.HasPrefix(inst, "node-") {
					errs <- fmt.Errorf("MasterOf returned %q", inst)
					return
				}
			}
		}()
	}

	allMastered := func() bool {
		for part := 0; part < partitions; part++ {
			inst, err := spec.MasterOf("db", part)
			mu.Lock()
			p, ok := live[inst]
			mu.Unlock()
			if err != nil || !ok || p.States("db")[part] != StateMaster {
				return false
			}
		}
		return true
	}
	waitFor(t, "initial convergence", 5*time.Second, allMastered)
	for round := 0; round < 3; round++ {
		victim, err := spec.MasterOf("db", round%partitions)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		p := live[victim]
		delete(live, victim)
		mu.Unlock()
		p.Close()
		waitFor(t, "failover", 5*time.Second, allMastered)
		join(victim) // rejoin under the same name, as a restarted node does
		waitFor(t, "rejoin", 5*time.Second, allMastered)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
