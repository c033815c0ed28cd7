package helix

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"datainfra/internal/zk"
)

// StateModel receives the transition callbacks — the application logic run
// when a partition changes role on this instance (e.g. an Espresso storage
// node catching up from the Databus relay before mastering).
type StateModel interface {
	// Apply performs the transition; returning an error leaves the replica in
	// its previous state (the controller will retry).
	Apply(t Transition) error
}

// StateModelFunc adapts a function to StateModel.
type StateModelFunc func(t Transition) error

// Apply calls f.
func (f StateModelFunc) Apply(t Transition) error { return f(t) }

// Participant is a managed node: it registers a live ephemeral, consumes
// transition messages, applies them through the StateModel and reports its
// CURRENTSTATE.
type Participant struct {
	clusterName string
	instance    string
	sess        *zk.Session
	model       StateModel

	mu     sync.Mutex
	states map[string]map[int]State // resource -> partition -> state

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewParticipant registers instance in the cluster and starts the message
// pump.
func NewParticipant(srv *zk.Server, clusterName, instance string, model StateModel) (*Participant, error) {
	sess := srv.NewSession()
	p := &Participant{
		clusterName: clusterName,
		instance:    instance,
		sess:        sess,
		model:       model,
		states:      map[string]map[int]State{},
		stop:        make(chan struct{}),
	}
	// A restarting instance comes back OFFLINE: wipe whatever a previous
	// incarnation under the same name reported (and any transitions still
	// queued for it), so the controller never trusts a dead session's claims.
	for _, dir := range []string{
		base(clusterName) + "/currentstate/" + instance,
		messagesDir(clusterName, instance),
	} {
		if err := sess.CreateAll(dir, nil); err != nil {
			sess.Close()
			return nil, err
		}
		if kids, err := sess.Children(dir); err == nil {
			for _, k := range kids {
				_ = sess.Delete(dir+"/"+k, -1)
			}
		}
	}
	if _, err := sess.Create(base(clusterName)+"/instances/"+instance, nil, zk.FlagEphemeral); err != nil {
		sess.Close()
		return nil, fmt.Errorf("helix: registering %s: %w", instance, err)
	}
	p.wg.Add(1)
	go p.pump()
	return p, nil
}

// Instance returns the participant's id.
func (p *Participant) Instance() string { return p.instance }

// States returns a copy of the partition states this instance holds for
// resource.
func (p *Participant) States(resource string) map[int]State {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[int]State{}
	for part, st := range p.states[resource] {
		out[part] = st
	}
	return out
}

// pump consumes transition messages in sequence order.
func (p *Participant) pump() {
	defer p.wg.Done()
	dir := messagesDir(p.clusterName, p.instance)
	msgs := zk.NewChildWatch(p.sess, dir)
	for {
		kids, err := msgs.List()
		if err != nil {
			return
		}
		sort.Strings(kids)
		for _, name := range kids {
			msgPath := dir + "/" + name
			data, _, err := p.sess.Get(msgPath)
			if err != nil {
				continue
			}
			var t Transition
			if err := json.Unmarshal(data, &t); err == nil {
				p.apply(t)
			}
			_ = p.sess.Delete(msgPath, -1)
		}
		select {
		case <-p.stop:
			return
		case <-msgs.Fired():
			msgs.Rearm()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (p *Participant) apply(t Transition) {
	// Skip stale messages: only apply if our current state matches From.
	p.mu.Lock()
	cur, ok := p.states[t.Resource][t.Partition]
	if !ok {
		cur = StateOffline
	}
	p.mu.Unlock()
	if cur != t.From {
		return
	}
	if err := p.model.Apply(t); err != nil {
		return // controller will reissue
	}
	p.mu.Lock()
	if p.states[t.Resource] == nil {
		p.states[t.Resource] = map[int]State{}
	}
	if t.To == StateOffline {
		delete(p.states[t.Resource], t.Partition)
	} else {
		p.states[t.Resource][t.Partition] = t.To
	}
	snapshot := make(map[string]State, len(p.states[t.Resource]))
	for part, st := range p.states[t.Resource] {
		snapshot[strconv.Itoa(part)] = st
	}
	p.mu.Unlock()

	data, err := json.Marshal(snapshot)
	if err != nil {
		return
	}
	csPath := base(p.clusterName) + "/currentstate/" + p.instance + "/" + t.Resource
	if ok, _ := p.sess.Exists(csPath); !ok {
		_ = p.sess.CreateAll(csPath, data)
		return
	}
	_, _ = p.sess.Set(csPath, data, -1)
}

// Close deregisters the instance (its ephemeral disappears, which is what
// the controller's failover reacts to) and stops the pump.
func (p *Participant) Close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
	p.sess.Close()
}
