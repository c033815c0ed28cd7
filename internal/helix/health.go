package helix

import (
	"fmt"
	"sync"
	"time"

	"datainfra/internal/zk"
)

// Alert is one health-check finding (§IV.B: Helix "monitors cluster health
// and provides alerts on SLA violations").
type Alert struct {
	Time     time.Time
	Instance string // empty for cluster-level alerts
	Message  string
}

// HealthMonitor watches the cluster's live-instance set and raises alerts
// when instances disappear or the live count drops below a minimum (the SLA
// floor).
type HealthMonitor struct {
	clusterName string
	sess        *zk.Session
	minLive     int

	mu    sync.Mutex
	known map[string]bool

	alerts chan Alert
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewHealthMonitor starts watching. minLive is the SLA floor for live
// instances; alerts arrive on Alerts().
func NewHealthMonitor(srv *zk.Server, clusterName string, minLive int) *HealthMonitor {
	m := &HealthMonitor{
		clusterName: clusterName,
		sess:        srv.NewSession(),
		minLive:     minLive,
		known:       map[string]bool{},
		alerts:      make(chan Alert, 64),
		stop:        make(chan struct{}),
	}
	m.wg.Add(1)
	go m.run()
	return m
}

// Alerts delivers findings; the channel drops when full rather than
// blocking the monitor.
func (m *HealthMonitor) Alerts() <-chan Alert { return m.alerts }

func (m *HealthMonitor) raise(instance, format string, args ...any) {
	select {
	case m.alerts <- Alert{Time: time.Now(), Instance: instance, Message: fmt.Sprintf(format, args...)}:
	default:
	}
}

func (m *HealthMonitor) run() {
	defer m.wg.Done()
	instances := zk.NewChildWatch(m.sess, base(m.clusterName)+"/instances")
	for {
		live, err := instances.List()
		if err != nil {
			return
		}
		m.observe(live)
		select {
		case <-m.stop:
			return
		case <-instances.Fired():
			instances.Rearm()
		case <-time.After(time.Second):
		}
	}
}

func (m *HealthMonitor) observe(live []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	current := map[string]bool{}
	for _, inst := range live {
		current[inst] = true
		if !m.known[inst] {
			m.known[inst] = true
			m.raise(inst, "instance joined")
		}
	}
	for inst := range m.known {
		if m.known[inst] && !current[inst] {
			m.known[inst] = false
			m.raise(inst, "instance DOWN")
		}
	}
	if len(live) < m.minLive {
		m.raise("", "SLA violation: %d live instances, minimum %d", len(live), m.minLive)
	}
}

// Live reports the currently-live instances the monitor has seen.
func (m *HealthMonitor) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for inst, up := range m.known {
		if up {
			out = append(out, inst)
		}
	}
	return out
}

// Close stops the monitor.
func (m *HealthMonitor) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.wg.Wait()
	m.sess.Close()
}
