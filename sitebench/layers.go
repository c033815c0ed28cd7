package main

import (
	"time"

	"datainfra/internal/cache"
	"datainfra/internal/metrics"
)

// regVal is one registry instrument's state: a counter or gauge value, a
// histogram's count and exact nanosecond sum, or a vec's per-label values.
type regVal struct {
	value, count, sum int64
	labels            map[string]int64
}

type regSnap map[string]regVal

func snapRegistry() regSnap {
	out := regSnap{}
	for _, s := range metrics.Default.Snapshot() {
		var v regVal
		switch {
		case s.Value != nil:
			v.value = *s.Value
		case s.Histogram != nil:
			v.count, v.sum = s.Histogram.Count, s.Histogram.SumNs
		case s.Values != nil:
			v.labels = map[string]int64{}
			for _, lv := range s.Values {
				v.labels[lv.Label] = lv.Value
				v.value += lv.Value
			}
		}
		out[s.Name] = v
	}
	return out
}

func (r regSnap) value(name string) int64 { return r[name].value }
func (r regSnap) count(name string) int64 { return r[name].count }
func (r regSnap) sum(name string) int64   { return r[name].sum }
func (r regSnap) label(name, label string) int64 {
	return r[name].labels[label]
}

// Span names recorded by the decorators.
const (
	spRoutedGet  = "voldemort.routed.get"
	spRoutedPut  = "voldemort.routed.put"
	spReplicaGet = "voldemort.replica.get"
	spReplicaPut = "voldemort.replica.put"
	spEspGet     = "espresso.client.get"
	spEspPut     = "espresso.client.put"
	spEspHGet    = "espresso.handler.get"
	spEspHPut    = "espresso.handler.put"
	spPoll       = "databus.poll"
	spServe      = "databus.serve"
	spProduce    = "kafka.produce"
	spFetch      = "kafka.fetch"
)

// Workload counter names.
const (
	ctrDataBytes   = "storage.data_bytes"   // bytes in the bitcask data directories
	ctrUserBytes   = "storage.user_bytes"   // value bytes of acknowledged writes
	ctrSourcePulls = "databus.source_pulls" // relay pulls from the binlog
	ctrTxns        = "databus.txns"         // binlog transactions committed
	ctrLagSum      = "espresso.lag_sum"     // sampled slave lag, summed
	ctrLagSamples  = "espresso.lag_samples"
)

// perLayer computes every per-layer metric over the open-loop window. A layer
// the workload does not exercise reports 0.
func perLayer(r *result, w window, propagation []time.Duration, propName string, late []time.Duration) {
	ss := w.spans
	ops := w.ops

	// voldemort: routed spans enclose the replica spans they fan out to.
	r.layer("voldemort.routed_get_us", "us", ss.meanUs(spRoutedGet))
	r.layer("voldemort.routed_put_us", "us", ss.meanUs(spRoutedPut))
	r.layer("voldemort.routed_self_us", "us", ss.selfUs(spRoutedGet, spRoutedPut))
	r.layer("voldemort.replica_get_us", "us", ss.meanUs(spReplicaGet))
	r.layer("voldemort.replica_put_us", "us", ss.meanUs(spReplicaPut))
	r.layer("voldemort.replica_calls_per_op", "calls", ratio(float64(ss.count(spReplicaGet, spReplicaPut)), ops))
	getSpans := map[int64]bool{}
	for _, s := range ss.byName[spRoutedGet] {
		getSpans[s.ID] = true
	}
	repairs := 0
	for _, s := range ss.byName[spReplicaPut] {
		if getSpans[s.Parent] {
			repairs++
		}
	}
	r.layer("voldemort.read_repairs_per_kop", "count", ratio(float64(repairs)*1000, ops))

	// rpc: the multiplexed transport under Voldemort and Kafka.
	r.layer("rpc.server_requests_per_op", "requests", ratio(w.reg("rpc_server_requests_total"), ops))
	r.layer("rpc.pipeline_depth", "requests", w.histMean("rpc_pipeline_depth_requests"))
	r.layer("rpc.timeouts", "count", w.reg("rpc_client_timeouts_total"))
	r.layer("rpc.dials", "count", w.reg("rpc_client_dials_total"))

	// cache: every read cache in the stack, from the instances' own stats.
	hits := w.cache(func(s cache.Stats) int64 { return s.Hits })
	misses := w.cache(func(s cache.Stats) int64 { return s.Misses })
	r.layer("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.layer("cache.evictions_per_kop", "count", ratio(w.cache(func(s cache.Stats) int64 { return s.Evictions })*1000, ops))
	r.layer("cache.invalidations_per_write", "count", ratio(w.cache(func(s cache.Stats) int64 { return s.Invalidations }), w.writes))
	r.layer("cache.collapsed_loads", "count", w.cache(func(s cache.Stats) int64 { return s.Collapsed }))
	var resident int64
	for _, c := range w.to.caches {
		resident += c.Bytes
	}
	r.layer("cache.resident_mb", "MiB", float64(resident)/(1<<20))

	// storage: bitcask group commit.
	commits := w.histCount("storage_commit_latency_seconds")
	r.layer("storage.commit_us", "us", w.histMean("storage_commit_latency_seconds")/1e3)
	r.layer("storage.writes_per_commit", "writes", ratio(w.regLabel("voldemort_server_requests_total", "put"), commits))
	r.layer("storage.commits_per_kop", "count", ratio(commits*1000, ops))
	r.layer("storage.write_amp", "ratio", ratio(w.ctr(ctrDataBytes), w.ctr(ctrUserBytes)))

	// espresso: client span minus handler span is the HTTP hop.
	r.layer("espresso.client_get_us", "us", ss.meanUs(spEspGet))
	r.layer("espresso.client_put_us", "us", ss.meanUs(spEspPut))
	r.layer("espresso.handler_get_us", "us", ss.meanUs(spEspHGet))
	r.layer("espresso.handler_put_us", "us", ss.meanUs(spEspHPut))
	handler := map[int64]int64{}
	for _, name := range []string{spEspHGet, spEspHPut} {
		for _, s := range ss.byName[name] {
			handler[s.Req] = s.dur()
		}
	}
	var hop, hops int64
	for _, name := range []string{spEspGet, spEspPut} {
		for _, s := range ss.byName[name] {
			if h, ok := handler[s.Req]; ok {
				hop += s.dur() - h
				hops++
			}
		}
	}
	r.layer("espresso.http_self_us", "us", ratio(float64(hop)/1e3, float64(hops)))
	r.layer("espresso.commit_us", "us", w.histMean("espresso_commit_latency_seconds")/1e3)
	r.layer("espresso.replica_lag_scn", "scn", ratio(w.ctr(ctrLagSum), w.ctr(ctrLagSamples)))

	// databus: subscriber polls against the relay's HTTP handler.
	polls := ss.byName[spPoll]
	var events, empty int64
	for _, s := range polls {
		events += s.N
		if s.N == 0 {
			empty++
		}
	}
	r.layer("databus.poll_us", "us", ss.meanUs(spPoll))
	r.layer("databus.serve_us", "us", ss.meanUs(spServe))
	r.layer("databus.events_per_poll", "events", ratio(float64(events), float64(len(polls))))
	r.layer("databus.empty_poll_ratio", "ratio", ratio(float64(empty), float64(len(polls))))
	r.layer("databus.source_pulls_per_txn", "pulls", ratio(w.ctr(ctrSourcePulls), w.ctr(ctrTxns)))

	// kafka: produce and fetch calls of the client, replica traffic from the registry.
	fetches := ss.byName[spFetch]
	var fetched, emptyFetch int64
	for _, s := range fetches {
		fetched += s.N
		if s.N == 0 {
			emptyFetch++
		}
	}
	r.layer("kafka.produce_us", "us", ss.meanUs(spProduce))
	r.layer("kafka.fetch_us", "us", ss.meanUs(spFetch))
	r.layer("kafka.bytes_per_fetch", "bytes", ratio(float64(fetched), float64(len(fetches))))
	r.layer("kafka.empty_fetch_ratio", "ratio", ratio(float64(emptyFetch), float64(len(fetches))))
	r.layer("kafka.replica_msgs_per_msg", "messages", ratio(w.reg("kafka_replica_messages_total"), w.writes))
	r.layer("kafka.isr_shrinks", "count", w.reg("kafka_isr_shrinks_total"))

	// Propagation from write ack to receipt, named by the layer that carries it.
	for _, name := range []string{"databus.propagation", "kafka.ack_to_consume"} {
		var p50, p99 float64
		if name == propName {
			sorted := sortedCopy(propagation)
			p50 = r.pct(name+"_p50_ms", sorted, 50)
			p99 = r.pct(name+"_p99_ms", sorted, 99)
		}
		r.layer(name+"_p50_ms", "ms", p50)
		r.layer(name+"_p99_ms", "ms", p99)
	}

	r.layer("resilience.retries", "count", w.reg("resilience_retry_retries_total"))
	r.layer("resilience.breaker_opens", "count", w.reg("resilience_breaker_opens_total"))

	r.layer("runtime.alloc_kb_per_op", "KiB", ratio(float64(w.to.mem.TotalAlloc-w.from.mem.TotalAlloc)/1024, ops))
	r.layer("runtime.gc_cycles", "count", float64(w.to.mem.NumGC-w.from.mem.NumGC))
	r.layer("runtime.gc_pause_ms", "ms", float64(w.to.mem.PauseTotalNs-w.from.mem.PauseTotalNs)/1e6)

	r.layer("harness.gen_late_p99_ms", "ms", genLateMs(late))
}
