package datainfra

import (
	"errors"
	"net"
	"testing"
	"time"

	"datainfra/internal/cluster"
	"datainfra/internal/kafka"
	"datainfra/internal/voldemort"
)

// TestServersRejectNonMuxConnections proves each server speaks one wire
// protocol: a connection opening with a lock-step length-prefixed frame is
// closed by the Voldemort server and the Kafka broker without a byte of
// reply, while a mux client on the same port keeps working.
func TestServersRejectNonMuxConnections(t *testing.T) {
	lockStep := []byte{0x00, 0x00, 0x00, 0x03, 'a', 'b', 'c'}
	expectClosed := func(t *testing.T, addr string) {
		t.Helper()
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(lockStep); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := nc.Read(make([]byte, 64))
		if n != 0 || err == nil {
			t.Fatalf("lock-step peer got a reply: (%d bytes, %v)", n, err)
		}
		if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server left the lock-step connection open")
		}
	}

	t.Run("voldemort", func(t *testing.T) {
		clus := cluster.Uniform("wire", 1, 4, 0)
		srv, err := voldemort.NewServer(voldemort.ServerConfig{NodeID: 0, Cluster: clus, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		def := (&cluster.StoreDef{Name: "s", Replication: 1, RequiredReads: 1, RequiredWrites: 1}).WithDefaults()
		if err := srv.AddStore(def); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ss := voldemort.DialStore("s", addr, time.Second)
		defer ss.Close()
		if err := ss.Ping(); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, addr)
		if err := ss.Ping(); err != nil {
			t.Fatalf("mux client after a rejected lock-step peer: %v", err)
		}
		if _, err := voldemort.NewAdmin(addr, time.Second).ListStores(); err != nil {
			t.Fatalf("admin client: %v", err)
		}
	})

	t.Run("kafka", func(t *testing.T) {
		br, err := kafka.NewBroker(0, t.TempDir(), kafka.BrokerConfig{PartitionsPerTopic: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer br.Close()
		addr, err := br.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rb := kafka.DialBroker(addr, time.Second)
		defer rb.Close()
		if _, err := rb.Partitions("t"); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, addr)
		if _, err := rb.Produce("t", 0, kafka.NewMessageSet([]byte("m"))); err != nil {
			t.Fatalf("mux client after a rejected lock-step peer: %v", err)
		}
	})
}
