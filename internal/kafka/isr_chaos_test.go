package kafka

// Chaos test for ISR replication over real TCP (§V.D): three brokers listen
// on TCP behind deterministic fault proxies; followers replicate through the
// proxies, the routed client produces through them, and the elected leader is
// killed mid-produce while connections drop and stall. The contract under
// test is the tentpole invariant: no message acknowledged at the high
// watermark is lost or relocated by failover — the promoted leader serves it
// at exactly the offset the ack named.

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"datainfra/internal/consistency"
	"datainfra/internal/helix"
	"datainfra/internal/resilience"
	"datainfra/internal/zk"
)

// tcpReplicatedRig is a replicated cluster whose every inter-broker and
// client byte crosses a fault-injecting TCP proxy.
type tcpReplicatedRig struct {
	srv     *zk.Server
	ctrl    *helix.Controller
	sess    *zk.Session
	cfg     ReplicatedConfig
	proxies map[string]string // instance -> proxy address

	mu      sync.Mutex
	brokers map[string]*ReplicatedBroker
	remotes []*RemoteBroker
}

func newTCPReplicatedRig(t *testing.T, brokers int, cfg ReplicatedConfig, inj *resilience.DeterministicInjector) *tcpReplicatedRig {
	t.Helper()
	cfg.withDefaults()
	rig := &tcpReplicatedRig{
		srv:     zk.NewServer(),
		cfg:     cfg,
		proxies: map[string]string{},
		brokers: map[string]*ReplicatedBroker{},
	}
	ctrl, err := helix.NewController(rig.srv, cfg.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	rig.ctrl = ctrl
	rig.sess = rig.srv.NewSession()
	t.Cleanup(func() {
		rig.mu.Lock()
		rbs := rig.brokers
		rig.brokers = map[string]*ReplicatedBroker{}
		remotes := rig.remotes
		rig.remotes = nil
		rig.mu.Unlock()
		for _, rb := range rbs {
			rb.Close()
		}
		for _, r := range remotes {
			r.Close()
		}
		ctrl.Close()
		rig.sess.Close()
	})

	// Every replica-fetch crosses the target broker's proxy, so follower
	// pulls ride the same fault schedule as client traffic.
	resolve := func(instance string) (ReplicaPeer, error) {
		return rig.dial(instance)
	}
	for i := 0; i < brokers; i++ {
		b, err := NewBroker(i, t.TempDir(), BrokerConfig{PartitionsPerTopic: 1})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := b.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		instance := fmt.Sprintf("broker-%d", i)
		rig.proxies[instance] = startDropProxy(t, addr, inj, 0)
		rb, err := NewReplicatedBroker(b, rig.srv, cfg, resolve)
		if err != nil {
			t.Fatal(err)
		}
		rig.brokers[instance] = rb
	}
	ctrl.Start()
	return rig
}

func (rig *tcpReplicatedRig) dial(instance string) (*RemoteBroker, error) {
	addr, ok := rig.proxies[instance]
	if !ok {
		return nil, fmt.Errorf("kafka: unknown broker %q", instance)
	}
	r := DialBroker(addr, time.Second)
	r.SetRetryPolicy(resilience.Policy{
		MaxAttempts:    6,
		InitialBackoff: 500 * time.Microsecond,
		MaxBackoff:     10 * time.Millisecond,
	})
	rig.mu.Lock()
	rig.remotes = append(rig.remotes, r)
	rig.mu.Unlock()
	return r, nil
}

func (rig *tcpReplicatedRig) addTopic(t *testing.T, topic string) {
	t.Helper()
	if err := rig.sess.CreateAll(topicMetaPath(rig.cfg.Cluster, topic), []byte("1")); err != nil {
		t.Fatal(err)
	}
	rig.ctrl.SetPreferenceFilter(topic, ISRPreference(rig.sess, rig.cfg.Cluster, topic))
	if err := rig.ctrl.AddResource(&helix.Resource{
		Name: topic, NumPartitions: 1, Replicas: rig.cfg.Replicas,
		StateModel: helix.ModelLeaderStandby,
	}); err != nil {
		t.Fatal(err)
	}
}

func (rig *tcpReplicatedRig) isrOf(topic string, partition int) (isrRecord, bool) {
	data, _, err := rig.sess.Get(isrPath(rig.cfg.Cluster, topic, partition))
	if err != nil {
		return isrRecord{}, false
	}
	var rec isrRecord
	if json.Unmarshal(data, &rec) != nil {
		return isrRecord{}, false
	}
	return rec, rec.Leader != ""
}

// kill closes a broker abruptly: its ephemeral expires, its listener and
// live connections die mid-flight.
func (rig *tcpReplicatedRig) kill(instance string) bool {
	rig.mu.Lock()
	rb, ok := rig.brokers[instance]
	delete(rig.brokers, instance)
	rig.mu.Unlock()
	if ok {
		rb.Close()
	}
	return ok
}

// TestChaosISRFailoverLeaderKillMidProduce is the tentpole chaos run: seeded
// connection drops, read-path kills and latency on every TCP link, the
// leader killed while producers are mid-stream, and the surviving cluster's
// log checked against the replicated-partition model — every HW-acked
// message served by the promoted leader at an unchanged offset.
func TestChaosISRFailoverLeaderKillMidProduce(t *testing.T) {
	inj := resilience.NewInjector(11)
	inj.Plan("proxy.accept", resilience.FaultPlan{DropProb: 0.15})
	inj.Plan("proxy.conn.read", resilience.FaultPlan{
		DropProb: 0.05, LatencyProb: 0.10, Latency: 300 * time.Microsecond,
	})

	rig := newTCPReplicatedRig(t, 3, ReplicatedConfig{
		Cluster: "chaos", Replicas: 3, MinISR: 2,
		FetchWait: 20 * time.Millisecond, LagTimeout: 400 * time.Millisecond,
		AckTimeout: 3 * time.Second,
	}, inj)
	rig.addTopic(t, "chaos")
	waitCond(t, "full ISR", 15*time.Second, func() bool {
		rec, ok := rig.isrOf("chaos", 0)
		return ok && len(rec.ISR) == 3
	})

	client := NewRoutedClient(rig.srv, "chaos", func(instance string) (ClusterPeer, error) {
		return rig.dial(instance)
	})
	defer client.Close()
	client.SetRetryPolicy(resilience.Policy{
		MaxAttempts:    20,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	})

	const total, producers, killAfter = 60, 3, 20
	var mu sync.Mutex
	var acked []consistency.ProducedMsg
	ackedCh := make(chan struct{}, total)

	// The assassin: wait for killAfter acks, then kill the current leader
	// while the producers are still streaming.
	killedCh := make(chan string, 1)
	go func() {
		for i := 0; i < killAfter; i++ {
			<-ackedCh
		}
		if rec, ok := rig.isrOf("chaos", 0); ok && rig.kill(rec.Leader) {
			killedCh <- rec.Leader
			return
		}
		killedCh <- ""
	}()

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += producers {
				payload := fmt.Sprintf("chaos-%03d", i)
				deadline := time.Now().Add(30 * time.Second)
				for {
					off, err := client.Produce("chaos", 0, NewMessageSet([]byte(payload)))
					if err == nil {
						mu.Lock()
						acked = append(acked, consistency.ProducedMsg{Offset: off, Payload: payload})
						mu.Unlock()
						ackedCh <- struct{}{}
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("produce %d never acknowledged across the failover: %v", i, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	killed := <-killedCh
	if killed == "" {
		t.Fatal("leader kill never happened; failover was not exercised")
	}
	if inj.Total() == 0 {
		t.Fatal("no faults injected; chaos run is vacuous")
	}

	// A new leader must be recorded, and it must be a surviving ISR member.
	var rec isrRecord
	waitCond(t, "promoted leader", 15*time.Second, func() bool {
		r, ok := rig.isrOf("chaos", 0)
		rec = r
		return ok && r.Leader != killed
	})

	// Consume the whole partition back through the faulty proxies and check
	// the replicated-log model: acked offsets unique, consumption gapless
	// and monotone, every acked message at exactly its acked offset.
	var earliest, latest int64
	deadline := time.Now().Add(20 * time.Second)
	for {
		var err error
		earliest, latest, err = client.Offsets("chaos", 0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("offsets after failover: %v", err)
		}
	}
	var consumed []consistency.ConsumedMsg
	offset := earliest
	for offset < latest {
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d messages, stuck at offset %d of %d", len(consumed), offset, latest)
		}
		chunk, err := client.Fetch("chaos", 0, offset, 1<<20)
		if err != nil {
			continue // dropped connection; the deadline bounds the retries
		}
		msgs, err := Decode(chunk, offset)
		if err != nil {
			t.Fatalf("decode at offset %d: %v", offset, err)
		}
		for _, m := range msgs {
			consumed = append(consumed, consistency.ConsumedMsg{NextOffset: m.NextOffset, Payload: string(m.Payload)})
			offset = m.NextOffset
		}
	}
	err := consistency.CheckKafkaReplicated(consistency.ReplicatedPartition{
		Topic: "chaos", Partition: 0,
		Start: earliest, End: latest,
		Acked: acked, Consumed: consumed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("isr chaos: %d acked (%d consumed), leader %s killed mid-produce, %s promoted, epoch %d, under %s",
		len(acked), len(consumed), killed, rec.Leader, rec.Epoch, inj)
}
