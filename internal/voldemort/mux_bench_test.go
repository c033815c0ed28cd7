package voldemort

// Mux throughput benchmarks for the socket transport: 1, 4 or 16 callers
// sharing one multiplexed connection, on loopback and behind a simulated
// 1 ms RTT link, where head-of-line blocking would dominate a transport
// that did not pipeline.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"datainfra/internal/cluster"
	"datainfra/internal/versioned"
)

// startDelayProxy fronts target with a fixed one-way latency in each
// direction — a bandwidth-unconstrained link approximation. Chunks propagate
// through a timestamped queue, so many frames in flight overlap their
// propagation delay exactly as they would on a real link. On loopback (where
// the real RTT is pure CPU) this is what makes pipelining measurable.
func startDelayProxy(tb testing.TB, target string, oneWay time.Duration) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			pipe := func(dst, src net.Conn) {
				type chunk struct {
					data []byte
					due  time.Time
				}
				q := make(chan chunk, 1024)
				go func() {
					defer dst.Close()
					for ch := range q {
						time.Sleep(time.Until(ch.due))
						if _, err := dst.Write(ch.data); err != nil {
							return
						}
					}
				}()
				buf := make([]byte, 64<<10)
				defer close(q)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						q <- chunk{data: append([]byte(nil), buf[:n]...), due: time.Now().Add(oneWay)}
					}
					if err != nil {
						return
					}
				}
			}
			go pipe(up, c)
			go pipe(c, up)
		}
	}()
	return ln.Addr().String()
}

func BenchmarkSocketStoreParallel(b *testing.B) {
	def := (&cluster.StoreDef{Name: "bench", Replication: 1, RequiredReads: 1, RequiredWrites: 1}).WithDefaults()
	clus, _ := startCluster(b, 1, 8, def)
	addr := clus.NodeByID(0).Addr()

	seed := DialStore("bench", addr, 2*time.Second)
	if err := seed.Put([]byte("k"), versioned.New([]byte("0123456789abcdef0123456789abcdef")), nil); err != nil {
		b.Fatal(err)
	}
	seed.Close()

	// 500µs each way = 1ms RTT, a realistic cross-rack order of magnitude.
	delayed := startDelayProxy(b, addr, 500*time.Microsecond)

	transports := []struct{ name, addr string }{
		{name: "mux1conn", addr: addr},
		{name: "mux1conn-rtt1ms", addr: delayed},
	}
	for _, tr := range transports {
		for _, callers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/callers=%d", tr.name, callers), func(b *testing.B) {
				ss := DialStore("bench", tr.addr, 2*time.Second)
				defer ss.Close()
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for c := 0; c < callers; c++ {
					n := b.N / callers
					if c < b.N%callers {
						n++
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := ss.Get([]byte("k"), nil); err != nil {
								b.Error(err)
								return
							}
						}
					}(n)
				}
				wg.Wait()
			})
		}
	}
}
