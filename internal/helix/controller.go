package helix

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strconv"
	"sync"
	"time"

	"datainfra/internal/zk"
)

// zk layout (per managed cluster):
//
//	/helix/<cluster>/resources/<name>          Resource JSON
//	/helix/<cluster>/instances/<id>            ephemeral, created by participants
//	/helix/<cluster>/messages/<id>/msg-NNN     Transition JSON (sequential)
//	/helix/<cluster>/currentstate/<id>/<res>   Assignment JSON (per instance)
//	/helix/<cluster>/externalview/<res>        Assignment JSON (controller output)

func base(clusterName string) string { return "/helix/" + clusterName }

// Controller is the Helix brain: it observes live instances and their
// current states and drives the cluster toward BESTPOSSIBLESTATE by issuing
// transitions. One active controller per cluster.
type Controller struct {
	clusterName string
	sess        *zk.Session

	mu        sync.Mutex
	resources map[string]*Resource
	ideal     map[string]Assignment       // resource -> IDEALSTATE over registered instances
	pending   map[string]bool             // in-flight transition ids
	prefs     map[string]PreferenceFilter // resource -> election preference hook

	stop chan struct{}
	kick chan struct{}
	wg   sync.WaitGroup
}

// NewController builds (but does not start) a controller.
func NewController(srv *zk.Server, clusterName string) (*Controller, error) {
	sess := srv.NewSession()
	for _, p := range []string{"", "/resources", "/instances", "/messages", "/currentstate", "/externalview"} {
		if err := sess.CreateAll(base(clusterName)+p, nil); err != nil {
			return nil, err
		}
	}
	return &Controller{
		clusterName: clusterName,
		sess:        sess,
		resources:   map[string]*Resource{},
		ideal:       map[string]Assignment{},
		pending:     map[string]bool{},
		prefs:       map[string]PreferenceFilter{},
		stop:        make(chan struct{}),
		kick:        make(chan struct{}, 1),
	}, nil
}

// AddResource registers a resource and computes its IDEALSTATE over the
// instances known at the time of the call plus later arrivals (the ideal
// state is recomputed as instances register).
func (c *Controller) AddResource(r *Resource) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := c.sess.CreateAll(base(c.clusterName)+"/resources/"+r.Name, data); err != nil {
		return err
	}
	c.mu.Lock()
	c.resources[r.Name] = r
	c.mu.Unlock()
	c.Kick()
	return nil
}

// SetPreferenceFilter installs an election preference hook for a resource:
// before states are assigned, the live candidate list of each partition is
// passed through fn (see PreferenceFilter). Kafka uses this to promote only
// in-sync replicas on leader failover.
func (c *Controller) SetPreferenceFilter(resource string, fn PreferenceFilter) {
	c.mu.Lock()
	c.prefs[resource] = fn
	c.mu.Unlock()
	c.Kick()
}

// Kick requests a rebalance pass.
func (c *Controller) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Start launches the control loop.
func (c *Controller) Start() {
	c.wg.Add(1)
	go c.run()
}

func (c *Controller) run() {
	defer c.wg.Done()
	live := zk.NewChildWatch(c.sess, base(c.clusterName)+"/instances")
	for {
		liveList, err := live.List()
		if err != nil {
			return
		}
		c.rebalance(liveList)
		select {
		case <-c.stop:
			return
		case <-live.Fired():
			live.Rearm()
		case <-c.kick:
		case <-time.After(50 * time.Millisecond):
			// Poll current states: participants update them out-of-band.
		}
	}
}

// liveInstances reads the ephemeral registrations.
func (c *Controller) liveInstances() []string {
	kids, err := c.sess.Children(base(c.clusterName) + "/instances")
	if err != nil {
		return nil
	}
	return kids
}

// currentState reads an instance's reported assignment for a resource.
func (c *Controller) currentState(instance, resource string) map[int]State {
	data, _, err := c.sess.Get(base(c.clusterName) + "/currentstate/" + instance + "/" + resource)
	if err != nil || len(data) == 0 {
		return map[int]State{}
	}
	var raw map[string]State
	if err := json.Unmarshal(data, &raw); err != nil {
		return map[int]State{}
	}
	out := make(map[int]State, len(raw))
	for k, st := range raw {
		p, _ := strconv.Atoi(k)
		out[p] = st
	}
	return out
}

// rebalance computes BESTPOSSIBLESTATE for every resource and issues the
// transitions that move the cluster toward it.
func (c *Controller) rebalance(live []string) {
	c.mu.Lock()
	resources := make([]*Resource, 0, len(c.resources))
	for _, r := range c.resources {
		resources = append(resources, r)
	}
	c.mu.Unlock()

	for _, r := range resources {
		// IDEALSTATE is sticky: computed over all instances ever seen live,
		// so it is stable across failures (the set only grows).
		c.mu.Lock()
		ideal, ok := c.ideal[r.Name]
		if !ok || c.idealMissingInstances(ideal, live) {
			known := c.knownInstances(ideal, live)
			ideal = IdealState(r, known)
			c.ideal[r.Name] = ideal
		}
		prefFn := c.prefs[r.Name]
		c.mu.Unlock()

		target := BestPossibleWithPreference(r, ideal, live, prefFn)

		// Assemble CURRENTSTATE from participant reports.
		current := Assignment{}
		for _, inst := range live {
			for p, st := range c.currentState(inst, r.Name) {
				if st == StateOffline {
					continue
				}
				if current[p] == nil {
					current[p] = map[string]State{}
				}
				current[p][inst] = st
			}
		}

		for _, t := range diffModel(r.Model(), r.Name, current, target) {
			c.issue(t)
		}
		c.publishExternalView(r.Name, current)
	}
}

func (c *Controller) knownInstances(ideal Assignment, live []string) []string {
	set := map[string]bool{}
	for _, m := range ideal {
		for inst := range m {
			set[inst] = true
		}
	}
	for _, inst := range live {
		set[inst] = true
	}
	out := make([]string, 0, len(set))
	for inst := range set {
		out = append(out, inst)
	}
	return out
}

func (c *Controller) idealMissingInstances(ideal Assignment, live []string) bool {
	if len(ideal) == 0 {
		return true
	}
	known := map[string]bool{}
	for _, m := range ideal {
		for inst := range m {
			known[inst] = true
		}
	}
	for _, inst := range live {
		if !known[inst] {
			return true
		}
	}
	return false
}

// issue sends a transition message unless an identical one is in flight.
func (c *Controller) issue(t Transition) {
	c.mu.Lock()
	if c.pending[t.ID] {
		c.mu.Unlock()
		return
	}
	c.pending[t.ID] = true
	c.mu.Unlock()

	data, err := json.Marshal(t)
	if err != nil {
		return
	}
	dir := base(c.clusterName) + "/messages/" + t.Instance
	if err := c.sess.CreateAll(dir, nil); err != nil {
		return
	}
	if _, err := c.sess.Create(dir+"/msg-", data, zk.FlagSequential); err != nil {
		return
	}
	// Clear the pending mark once the participant reports a state change;
	// simplest correct policy: expire after a short deadline.
	go func() {
		time.Sleep(500 * time.Millisecond)
		c.mu.Lock()
		delete(c.pending, t.ID)
		c.mu.Unlock()
	}()
}

// publishExternalView writes the routable view (who masters what) for
// spectators such as the Espresso router. An unchanged view is not
// rewritten: every write moves the znode's Mzxid, which would make every
// spectator decode the view again and fire data watches for nothing.
func (c *Controller) publishExternalView(resource string, view Assignment) {
	data, err := json.Marshal(view)
	if err != nil {
		return
	}
	p := base(c.clusterName) + "/externalview/" + resource
	stored, _, err := c.sess.Get(p)
	switch {
	case errors.Is(err, zk.ErrNoNode):
		_ = c.sess.CreateAll(p, data)
	case err == nil && !bytes.Equal(stored, data):
		_, _ = c.sess.Set(p, data, -1)
	}
}

// Close stops the control loop and the session.
func (c *Controller) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
	c.sess.Close()
}

// Spectator provides read-only access to the external view — the routing
// table consumers like the Espresso router use. Like a Helix spectator it
// keeps each resource's view decoded and re-decodes only when the znode
// changes; every read still checks the live znode's Mzxid, so a route is
// never older than the view the controller last published.
type Spectator struct {
	clusterName string
	sess        *zk.Session
	views       sync.Map // resource -> *zk.Memo[Assignment]
}

// NewSpectator opens a read-only view of the cluster.
func NewSpectator(srv *zk.Server, clusterName string) *Spectator {
	return &Spectator{clusterName: clusterName, sess: srv.NewSession()}
}

// view returns resource's current external view. The result is shared with
// concurrent readers and must not be modified.
func (s *Spectator) view(resource string) (Assignment, error) {
	m, ok := s.views.Load(resource)
	if !ok {
		m, _ = s.views.LoadOrStore(resource, zk.NewMemo(s.sess, base(s.clusterName)+"/externalview/"+resource, decodeAssignment))
	}
	a, _, err := m.(*zk.Memo[Assignment]).Get()
	return a, err
}

func decodeAssignment(data []byte) (Assignment, error) {
	a := Assignment{}
	if len(data) == 0 {
		return a, nil
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	return a, nil
}

// ExternalView returns a copy of the routable assignment for resource.
func (s *Spectator) ExternalView(resource string) (Assignment, error) {
	view, err := s.view(resource)
	if err != nil {
		return nil, err
	}
	return view.Clone(), nil
}

// MasterOf returns the instance currently mastering partition p of resource.
func (s *Spectator) MasterOf(resource string, p int) (string, error) {
	view, err := s.view(resource)
	if err != nil {
		return "", err
	}
	inst, ok := view.MasterOf(p)
	if !ok {
		return "", fmt.Errorf("helix: no master for %s partition %d", resource, p)
	}
	return inst, nil
}

// Close releases the session.
func (s *Spectator) Close() { s.sess.Close() }

// msgPath helpers shared with participants.
func messagesDir(clusterName, instance string) string {
	return path.Join(base(clusterName), "messages", instance)
}
