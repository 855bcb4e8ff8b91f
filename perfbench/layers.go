package main

import (
	rtmetrics "runtime/metrics"
)

// layers are the repository modules the spans are attributed to;
// "bench" is the benchmark's own bookkeeping between calls.
var layers = []string{"topology", "placement", "durable", "deploy", "netsim", "transport", "obs", "bench"}

// perLayer lists every metric a traced run prints, with its unit. A
// metric of a layer the workload does not exercise reads 0 — the
// prediction for a workload that bypasses that layer.
var perLayer = func() [][2]string {
	var out [][2]string
	for _, l := range layers {
		out = append(out, [2]string{"self_ms." + l, "ms"})
	}
	return append(out, [][2]string{
		{"placement.place_us.p50", "us"}, {"placement.place_us.p99", "us"},
		{"placement.remove_us.p50", "us"}, {"placement.recover_ms.p50", "ms"},
		{"placement.allocs_per_place", "count"},
		{"placement.accepted", "count"}, {"placement.relocated", "count"},
		{"placement.degraded", "count"}, {"placement.evicted", "count"},
		{"durable.append_us", "us"}, {"durable.records", "count"}, {"durable.fsyncs", "count"},
		{"durable.snapshots", "count"}, {"durable.retries", "count"},
		{"durable.replay_ms", "ms"}, {"durable.replayed_records", "count"},
		{"deploy.ms", "ms"},
		{"pacer.batches", "count"}, {"pacer.frames_per_batch", "count"}, {"pacer.data_share", "ratio"},
		{"pacer.curve_delayed", "count"}, {"pacer.delay_us.p99", "us"},
		{"netsim.events", "count"}, {"netsim.events_per_pkt", "count"}, {"netsim.ns_per_event", "ns"},
		{"netsim.wheel_hwm", "count"}, {"netsim.far_hwm", "count"},
		{"netsim.ev_hit_share", "ratio"}, {"netsim.pkt_hit_share", "ratio"},
		{"netsim.allocs_per_pkt", "count"}, {"netsim.drops", "count"}, {"netsim.port_hwm_kb", "KB"},
		{"netsim.epochs", "count"}, {"netsim.pkts_per_epoch", "count"}, {"netsim.stall_share", "ratio"},
		{"netsim.barrier_ms", "ms"}, {"netsim.cross_pkts", "count"}, {"netsim.lookahead_share", "ratio"},
		{"transport.messages", "count"}, {"transport.rto_msgs", "count"},
		{"obs.audit_overhead", "ratio"}, {"obs.flight_overhead", "ratio"},
		{"obs.introspect_overhead", "ratio"}, {"obs.probe_overhead", "ratio"},
		{"go.gc_cpu_share", "ratio"},
		{"trace.overhead", "ratio"}, {"trace.accounted_share", "ratio"},
	}...)
}()

// endToEnd lists every metric an untraced run prints, with its unit.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
	{"op_p50_us", "us"}, {"op_p99_us", "us"},
}

// setLayerTimes reports every layer's self time.
func setLayerTimes(rep *report, tr *tracer) {
	self := tr.selfNs()
	for _, l := range layers {
		rep.set("self_ms."+l, "ms", float64(self[l])/1e6)
	}
}

// accountedShare is the share of the time of the root spans named root
// that the layers' self time covers; the rest, the self time of the
// "bench" spans in those trees, is the benchmark's own bookkeeping.
func accountedShare(tr *tracer, root string) float64 {
	top := make([]int, len(tr.spans)) // each span's root; parents precede children
	child := make([]int64, len(tr.spans))
	for i, s := range tr.spans {
		top[i] = i
		if s.parent >= 0 {
			top[i] = top[s.parent]
			child[s.parent] += s.end - s.start
		}
	}
	var total, bench int64
	for i, s := range tr.spans {
		if tr.spans[top[i]].name != root {
			continue
		}
		if s.parent < 0 {
			total += s.end - s.start
		}
		if s.layer == "bench" {
			bench += s.end - s.start - child[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-bench) / float64(total)
}

// cpuClock samples the Go runtime's CPU accounting.
type cpuClock struct{ gc, total float64 }

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() cpuClock {
	rtmetrics.Read(cpuSamples)
	return cpuClock{gc: cpuSamples[0].Value.Float64(), total: cpuSamples[1].Value.Float64()}
}

// gcShare is the GC's share of the process CPU time since c.
func (c cpuClock) gcShare() float64 {
	now := readCPU()
	if now.total <= c.total {
		return 0
	}
	return (now.gc - c.gc) / (now.total - c.total)
}
