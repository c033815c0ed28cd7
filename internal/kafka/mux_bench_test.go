package kafka

// Mux throughput benchmarks for the broker wire protocol. Each op is one
// produce plus one fetch — the dominant small request/response traffic of
// §V — issued by 1, 4 or 16 callers sharing one pipelined connection, on
// loopback and behind a simulated 1 ms RTT link.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startDelayProxy fronts target with a fixed one-way latency per direction
// (timestamped store-and-forward queue, so in-flight chunks overlap their
// propagation delay like on a real link). Same helper as the voldemort mux
// benchmarks: on loopback the RTT is pure CPU, so the head-of-line blocking
// the mux removes only becomes measurable behind a simulated link delay.
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

func BenchmarkRemoteBrokerProduceFetchParallel(b *testing.B) {
	br, err := NewBroker(0, b.TempDir(), BrokerConfig{
		PartitionsPerTopic: 1,
		Log:                LogConfig{FlushMessages: 1000},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	set := NewMessageSet(make([]byte, 200))
	if _, err := br.Produce("bench", 0, set); err != nil {
		b.Fatal(err)
	}
	br.FlushAll() // fetch at offset 0 must see flushed data

	// 500µs each way = 1ms RTT, a realistic cross-rack order of magnitude.
	delayed := startDelayProxy(b, addr, 500*time.Microsecond)

	transports := []struct{ name, addr string }{
		{name: "mux1conn", addr: addr},
		{name: "mux1conn-rtt1ms", addr: delayed},
	}
	for _, tr := range transports {
		for _, callers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/callers=%d", tr.name, callers), func(b *testing.B) {
				rb := DialBroker(tr.addr, 2*time.Second)
				defer rb.Close()
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
							if _, err := rb.Produce("bench", 0, set); err != nil {
								b.Error(err)
								return
							}
							if _, err := rb.Fetch("bench", 0, 0, 256); err != nil {
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
