package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// traceDCPaced is dc-paced's traced run. It simulates the seed's first
// tenant set over and over, round-robin: with spans (the standard
// planes), without spans, and with each plane alone or none attached,
// so every plane's cost is "attached ÷ bare" from one process.
func traceDCPaced(cfg config, p dcParams) (*report, error) {
	rep := newReport()
	tr := cfg.tr
	sub := cfg.seed * 1000
	walls := map[string][]float64{}
	var last *dcRep
	var lastEvents int
	var runNs, runAllocs int64
	cpu := readCPU()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	kinds := []string{"traced", "untraced", "bare", "audit", "flight", "introspect"}
	planes := map[string]plane{"traced": planeStandard, "untraced": planeStandard,
		"bare": planeBare, "audit": planeAudit, "flight": planeFlight, "introspect": planeIntrospect}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, k := range kinds {
			var rt *tracer
			if k == "traced" {
				rt = tr
			}
			root := rt.begin("bench", "rep", int64(round))
			r, err := setupDC(p, sub, planes[k], rt)
			if err != nil {
				return nil, err
			}
			a0 := heapAllocs()
			wall, events := r.simulate(rt)
			allocs := int64(heapAllocs() - a0)
			rt.end(root)
			walls[k] = append(walls[k], wall)
			rep.attempted += r.submitted
			rep.failed += r.failedOps()
			r.checkNetwork(rep, round)
			if k == "traced" {
				last, lastEvents = r, events
				runNs += int64(wall * 1e9)
				runAllocs += allocs
			}
			runtime.GC()
		}
	}
	gc := cpu.gcShare()
	rounds := len(walls["traced"])
	med := func(k string) float64 { return quartiles(walls[k])[1] }

	r := last
	pk := r.dataPkts()
	rep.digest = fmt.Sprintf("%016x/%d/%d", r.decision.sum(), r.completed, pk)
	setLayerTimes(rep, tr)
	rep.set("placement.place_us.p50", "us", pct(tr.durations("placement.Place"), 50)/1e3)
	rep.set("placement.place_us.p99", "us", pct(tr.durations("placement.Place"), 99)/1e3)
	rep.set("placement.accepted", "count", float64(r.tenants))
	rep.set("deploy.ms", "ms", float64(tr.sumNs("experiments.DeployTenant")+tr.sumNs("experiments.CoordinateHose"))/1e6/float64(rounds))

	snap := r.reg.Snapshot()
	batches := sumCounter(snap, "silo_pacer_batches_total")
	data := sumCounter(snap, "silo_pacer_data_frames_total")
	voids := sumCounter(snap, "silo_pacer_void_frames_total")
	rep.set("pacer.batches", "count", batches)
	if batches > 0 {
		rep.set("pacer.frames_per_batch", "count", (data+voids)/batches)
		rep.set("pacer.data_share", "ratio", data/(data+voids))
	}
	rep.printf("pacer: %.0f data + %.0f void frames in %.0f batches (base of pacer.data_share and pacer.frames_per_batch)", data, voids, batches)
	rep.set("pacer.curve_delayed", "count", sumCounter(snap, "silo_pacer_curve_delayed_total"))
	rep.set("pacer.delay_us.p99", "us", histQuantile(snap, "silo_pacer_delay_us", 0.99))

	setSimCounters(rep, r.nw, []*netsim.Sim{r.nw.Sim}, lastEvents, pk, float64(runNs)/float64(rounds), float64(runAllocs)/float64(rounds))
	rep.set("transport.messages", "count", float64(r.submitted))
	rep.set("transport.rto_msgs", "count", float64(r.rtoMsgs))
	rep.set("obs.audit_overhead", "ratio", med("audit")/med("bare"))
	rep.set("obs.flight_overhead", "ratio", med("flight")/med("bare"))
	rep.set("obs.introspect_overhead", "ratio", med("introspect")/med("bare"))
	rep.set("go.gc_cpu_share", "ratio", gc)
	rep.set("trace.overhead", "ratio", med("traced")/med("untraced"))
	rep.set("trace.accounted_share", "ratio", accountedShare(tr, "rep"))
	rep.printf("dc-paced traced: %d rounds of %v on tenant set %d (tenants=%d vms=%d data_pkts=%d)", rounds, kinds, sub, r.tenants, r.vms, pk)
	for _, k := range kinds {
		q := quartiles(walls[k])
		rep.printf("dc-paced traced: simulate wall %-10s median %.4fs (quartiles %.4f/%.4f, n=%d)", k, q[1], q[0], q[2], len(walls[k]))
	}
	rep.printf("obs overheads are simulate wall with the one plane attached ÷ bare (base %.4fs); trace.overhead is traced ÷ untraced standard planes (base %.4fs)", med("bare"), med("untraced"))
	return rep, nil
}

// traceFabricPar is fabric-par's traced run: round-robin reps with
// spans, without, and with the runtime probe attached.
func traceFabricPar(cfg config, p fabricParams) (*report, error) {
	rep := newReport()
	tr := cfg.tr
	workers := runtime.GOMAXPROCS(0)
	walls := map[string][]float64{}
	var last, probed *fabricRep
	var lastEvents int
	var runNs, runAllocs int64
	cpu := readCPU()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	kinds := []string{"traced", "untraced", "probe"}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, k := range kinds {
			var rt *tracer
			if k == "traced" {
				rt = tr
			}
			root := rt.begin("bench", "rep", int64(round))
			r, err := setupFabric(p, cfg.seed, workers, rt)
			if err != nil {
				return nil, err
			}
			if k == "probe" {
				r.nw.PS.AttachRuntime()
			}
			a0 := heapAllocs()
			wall, events := r.simulate(rt)
			allocs := int64(heapAllocs() - a0)
			rt.end(root)
			walls[k] = append(walls[k], wall)
			rep.attempted += r.injected
			rep.failed += r.injected - r.delivered()
			switch k {
			case "traced":
				last, lastEvents = r, events
				runNs += int64(wall * 1e9)
				runAllocs += allocs
			case "probe":
				probed = r
			}
			runtime.GC()
		}
	}
	gc := cpu.gcShare()
	rounds := len(walls["traced"])
	med := func(k string) float64 { return quartiles(walls[k])[1] }

	r := last
	pk := r.delivered()
	rep.digest = fmt.Sprintf("%016x", digestOf(r.summary()))
	setLayerTimes(rep, tr)
	sims := []*netsim.Sim{r.nw.Sim}
	for i := 0; i < r.nw.PS.Islands(); i++ {
		sims = append(sims, r.nw.PS.Island(i))
	}
	setSimCounters(rep, r.nw, sims, lastEvents, pk, float64(runNs)/float64(rounds), float64(runAllocs)/float64(rounds))

	probe := probed.nw.PS.Runtime()
	var stall, loop int64
	for w := 0; w < probe.NumWorkers(); w++ {
		stall += probe.Worker(w).StallNs
		loop += probe.Worker(w).LoopNs
	}
	c := probe.Coord
	rep.set("netsim.epochs", "count", float64(c.Epochs))
	if c.Epochs > 0 {
		rep.set("netsim.pkts_per_epoch", "count", float64(probed.delivered())/float64(c.Epochs))
		rep.set("netsim.lookahead_share", "ratio", float64(c.BoundLookahead)/float64(c.Epochs))
	}
	if loop > 0 {
		rep.set("netsim.stall_share", "ratio", float64(stall)/float64(loop))
	}
	rep.set("netsim.barrier_ms", "ms", float64(c.BarrierNs)/1e6)
	rep.set("netsim.cross_pkts", "count", float64(c.CrossMerged))
	rep.set("obs.probe_overhead", "ratio", med("probe")/med("untraced"))
	rep.set("go.gc_cpu_share", "ratio", gc)
	rep.set("trace.overhead", "ratio", med("traced")/med("untraced"))
	rep.set("trace.accounted_share", "ratio", accountedShare(tr, "rep"))
	rep.printf("fabric-par traced: %d rounds of %v, workers=%d islands=%d data_pkts=%d", rounds, kinds, workers, r.nw.PS.Islands(), pk)
	for _, k := range kinds {
		q := quartiles(walls[k])
		rep.printf("fabric-par traced: simulate wall %-8s median %.4fs (quartiles %.4f/%.4f, n=%d)", k, q[1], q[0], q[2], len(walls[k]))
	}
	rep.printf("probe: workers spent %.1f%% of their loop time stalled at epoch barriers (base: %.3f s of worker loop time)", 100*float64(stall)/float64(max(loop, 1)), float64(loop)/1e9)
	if loop > 0 && 2*stall > loop {
		rep.printf("finding: barrier stall exceeds half the worker time at %d workers on %d CPUs; the coordinator spin-waits beside its workers", workers, runtime.NumCPU())
	}
	rep.printf("obs.probe_overhead is simulate wall with the probe ÷ without (base %.4fs); trace.overhead is traced ÷ untraced (base %.4fs)", med("untraced"), med("untraced"))
	return rep, nil
}

// setSimCounters reports the event engine's counters summed over sims
// (high-water marks take the largest), per-packet ratios over pk
// delivered packets, and the network's drops and port high water.
func setSimCounters(rep *report, nw *netsim.Network, sims []*netsim.Sim, events int, pk int64, runNs, allocs float64) {
	var c netsim.SimCounters
	for _, s := range sims {
		sc := s.RuntimeCounters()
		c.Events += sc.Events
		c.EvHits += sc.EvHits
		c.EvMisses += sc.EvMisses
		c.PktHits += sc.PktHits
		c.PktMisses += sc.PktMisses
		c.WheelHWM = max(c.WheelHWM, sc.WheelHWM)
		c.FarHWM = max(c.FarHWM, sc.FarHWM)
	}
	rep.printf("netsim: %d events over %d delivered packets in %.3f s of Run; event nodes %d reused / %d carved, packets %d reused / %d carved (bases of the per-packet, per-event and hit-share ratios)",
		events, pk, runNs/1e9, c.EvHits, c.EvMisses, c.PktHits, c.PktMisses)
	rep.set("netsim.events", "count", float64(events))
	if pk > 0 {
		rep.set("netsim.events_per_pkt", "count", float64(events)/float64(pk))
		rep.set("netsim.allocs_per_pkt", "count", allocs/float64(pk))
	}
	if events > 0 {
		rep.set("netsim.ns_per_event", "ns", runNs/float64(events))
	}
	rep.set("netsim.wheel_hwm", "count", float64(c.WheelHWM))
	rep.set("netsim.far_hwm", "count", float64(c.FarHWM))
	if c.EvHits+c.EvMisses > 0 {
		rep.set("netsim.ev_hit_share", "ratio", float64(c.EvHits)/float64(c.EvHits+c.EvMisses))
	}
	if c.PktHits+c.PktMisses > 0 {
		rep.set("netsim.pkt_hit_share", "ratio", float64(c.PktHits)/float64(c.PktHits+c.PktMisses))
	}
	rep.set("netsim.drops", "count", float64(nw.TotalDrops()))
	var hwm int64
	for _, q := range nw.Queues {
		if q != nil {
			hwm = max(hwm, int64(q.Stats.HighWaterBytes))
		}
	}
	rep.set("netsim.port_hwm_kb", "KB", float64(hwm)/1024)
}

// sumCounter totals every series of a counter family in a snapshot.
func sumCounter(s obs.Snapshot, name string) float64 {
	var v float64
	for _, e := range s.Entries {
		if e.Name == name {
			v += e.Value
		}
	}
	return v
}

// histQuantile merges every series of a histogram family and returns
// the q-th quantile as the containing bucket's upper bound.
func histQuantile(s obs.Snapshot, name string, q float64) float64 {
	var merged []int64
	var n int64
	for _, e := range s.Entries {
		if e.Name != name || e.Hist == nil {
			continue
		}
		if merged == nil {
			merged = make([]int64, len(e.Hist.Buckets))
		}
		for i, c := range e.Hist.Buckets {
			merged[i] += c
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.999999)
	var seen int64
	for i, c := range merged {
		seen += c
		if seen >= rank {
			return float64(obs.BucketUpperBound(i))
		}
	}
	return 0
}
