package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/slo"
	"repro/internal/pacer"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// dcParams shapes the §6.2 packet-level run (DefaultComparisonParams:
// 10 racks × 4 servers × 4 slots, 1:5, 90% occupancy, half the tenants
// class A).
type dcParams struct {
	racks, servers, slots int
	occupancy             float64
	avgVMs                int
	classBMsg             int
	horizonNs, drainNs    int64
	windowNs              int64
	scheme                experiments.Scheme
}

func defaultDC(tiny bool) dcParams {
	p := dcParams{
		racks: 10, servers: 4, slots: 4, occupancy: 0.9, avgVMs: 9,
		classBMsg: 64 << 10, horizonNs: 10_000_000, drainNs: 3_000_000_000,
		windowNs: 1_000_000, scheme: experiments.SchemeSilo,
	}
	if tiny {
		p.racks, p.horizonNs = 4, 2_000_000
	}
	return p
}

// dcLatReps is how many reps the simulated latency metrics pool. Every
// rep deploys a new tenant set drawn from the seed; the first dcLatReps
// always run, so the latency metrics are fixed for a seed whatever the
// machine's speed. Fifty sets hold about 600 class-A tenants and 14000
// class-A messages.
const dcLatReps = 50

// plane selects the observability attached to a dc-paced rep.
type plane int

const (
	planeStandard   plane = iota // auditor + metrics registry + SLO windows (silo-sim -slo-report)
	planeBare                    // nothing attached
	planeAudit                   // guarantee auditor only
	planeFlight                  // flight recorder at 1-in-64
	planeIntrospect              // introspection plane only
)

// dcRep is one deployed tenant set, ready to simulate.
type dcRep struct {
	p        dcParams
	nw       *netsim.Network
	audit    *obs.GuaranteeAuditor
	reg      *obs.Registry
	tenants  int
	vms      int
	classA   int
	decision digester

	// Message outcomes, filled by completion callbacks.
	submitted, completed int64
	late, rtoMsgs        int64
	latA                 []float64    // class-A latencies, µs (simulated)
	tenantLat            []*[]float64 // the same, per class-A tenant
	pairs                []vmPair     // every sender → receiver VM pair
}

// vmPair is one transport connection the workload sends on.
type vmPair struct {
	ep  *transport.Endpoint
	dst int
}

// setupDC builds the fabric and admits, deploys and hose-coordinates
// one seeded tenant set, then schedules its message workload.
func setupDC(p dcParams, seed uint64, pl plane, tr *tracer) (*dcRep, error) {
	r := &dcRep{p: p}
	var tree *topology.Tree
	var err error
	tr.do("topology", "topology.New", -1, func() {
		tree, err = topology.New(topology.Config{
			Pods: 1, RacksPerPod: p.racks, ServersPerRack: p.servers, SlotsPerServer: p.slots,
			LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
			RackOversub: 5, PodOversub: 1,
		})
	})
	if err != nil {
		return nil, err
	}
	var f *transport.Fabric
	tr.do("netsim", "netsim.Build", -1, func() { r.nw = netsim.Build(netsim.NewSim(), tree, netsim.Options{PropNs: 200}) })
	tr.do("transport", "transport.NewFabric", -1, func() { f = transport.NewFabric(r.nw) })
	var placer placement.Algorithm
	if p.scheme == experiments.SchemeSilo {
		placer = placement.NewManager(tree, placement.Options{Workers: runtime.GOMAXPROCS(0)})
	} else {
		placer = placement.NewLocality(tree)
	}

	rng := stats.NewRand(seed)
	target := int(p.occupancy * float64(tree.Slots()))
	var deps []*experiments.Deployment
	var classA []bool
	vmBase := 1000
	for i := 0; r.vms < target && i < 4*target; i++ {
		a, spec := dcTenant(rng, i+1, p.avgVMs)
		if r.vms+spec.VMs > target {
			continue
		}
		var pl *tenant.Placement
		tr.do("placement", "placement.Place", -1, func() { pl, err = placer.Place(spec) })
		r.decision.add(fmt.Sprint(spec.ID, err == nil))
		if err != nil {
			continue // admission control rejected it; try the next tenant
		}
		r.decision.add(fmt.Sprint(pl.Servers))
		var d *experiments.Deployment
		tr.do("deploy", "experiments.DeployTenant", -1, func() {
			d = experiments.DeployTenant(r.nw, f, p.scheme, spec, pl, vmBase)
		})
		vmBase += spec.VMs + 10
		deps = append(deps, d)
		classA = append(classA, a)
		r.vms += spec.VMs
	}
	r.tenants = len(deps)

	tenantOf := vmTenants(deps)
	switch pl {
	case planeStandard:
		tr.do("obs", "obs.attach(standard)", -1, func() {
			r.reg = obs.NewRegistry()
			r.audit = obs.NewGuaranteeAuditor(r.reg)
			bm := pacer.NewBatchMetrics(r.reg)
			for _, d := range deps {
				d.EnableTelemetry(r.nw, r.reg, r.audit, bm)
			}
			r.nw.RegisterMetrics(r.reg)
			r.nw.AttachDelayAudit(r.audit, tenantOf)
			tracker := netsim.AttachPortWindowTracker(r.nw)
			engine := slo.New(slo.Config{WindowNs: p.windowNs}, r.audit, tracker)
			r.nw.Sim.Every(p.windowNs, p.horizonNs+p.drainNs, func(now int64) {
				engine.Flush(now)
				tracker.Reset()
			})
		})
	case planeAudit:
		tr.do("obs", "obs.attach(audit)", -1, func() {
			r.audit = obs.NewGuaranteeAuditor(nil)
			for _, d := range deps {
				d.EnableTelemetry(r.nw, nil, r.audit, nil)
			}
			r.nw.AttachDelayAudit(r.audit, tenantOf)
		})
	case planeFlight:
		tr.do("obs", "obs.attach(flight)", -1, func() { netsim.AttachFlightRecorder(r.nw, obs.NewFlightRecorder(0, 64)) })
	case planeIntrospect:
		tr.do("obs", "obs.attach(introspect)", -1, func() {
			in := introspect.Attach(r.nw, nil, introspect.Config{})
			for _, d := range deps {
				adm := introspect.Envelope{RateBps: d.Spec.Guarantee.BandwidthBps, BurstBytes: d.Spec.Guarantee.BurstBytes}
				for i, vmID := range d.VMIDs {
					in.TrackVM(d.Placement.Servers[i], vmID, d.Spec.ID, adm)
				}
			}
			if m, ok := placer.(*placement.Manager); ok {
				in.BindPlacement(m)
			}
		})
	}

	wrng := rng.Split()
	for i, d := range deps {
		if classA[i] {
			r.classA++
			r.startClassA(d, wrng.Split(), tr)
		} else {
			r.startClassB(d, tr)
		}
	}
	return r, nil
}

// dcTenant draws one Table-3 tenant as the §6.2 comparison does.
func dcTenant(rng *stats.Rand, id, avg int) (bool, tenant.Spec) {
	classA := rng.Float64() < 0.5
	vms := int(rng.Exp(float64(avg)))
	vms = max(4, min(vms, 2*avg))
	var g tenant.Guarantee
	if classA {
		g = tenant.Guarantee{
			BandwidthBps: clamp(rng.Exp(0.25*gbps), 0.05*gbps, 0.5*gbps),
			BurstBytes:   clamp(rng.Exp(15e3), 3e3, 30e3),
			DelayBound:   1e-3,
			BurstRateBps: 1 * gbps,
		}
	} else {
		g = tenant.Guarantee{
			BandwidthBps: clamp(rng.Exp(2*gbps), 0.5*gbps, 3*gbps),
			BurstBytes:   1.5e3,
			BurstRateBps: 2 * gbps,
		}
	}
	return classA, tenant.Spec{ID: id, Name: fmt.Sprintf("t%d", id), VMs: vms, Guarantee: g, FaultDomains: 2}
}

func clamp(v, lo, hi float64) float64 { return max(lo, min(v, hi)) }

// vmTenants maps a VM ID to its tenant for the delay audit.
func vmTenants(deps []*experiments.Deployment) func(int) (int, bool) {
	owner := map[int]int{}
	for _, d := range deps {
		for _, id := range d.VMIDs {
			owner[id] = d.Spec.ID
		}
	}
	return func(vm int) (int, bool) {
		t, ok := owner[vm]
		return t, ok
	}
}

// startClassA schedules OLDI all-to-one rounds: every VM sends an
// S/3-byte message to VM 0. A message over its guarantee M/Bmax + d
// counts as late.
func (r *dcRep) startClassA(d *experiments.Deployment, rng *stats.Rand, tr *tracer) {
	g := d.Spec.Guarantee
	msg := max(int(g.BurstBytes/3), 1500)
	// The guarantee M/Bmax + d.
	bound := int64((float64(msg)/g.BurstRateBps + g.DelayBound) * 1e9)
	if r.p.scheme.Paced() {
		tr.do("deploy", "experiments.CoordinateHose", -1, func() {
			experiments.CoordinateHose(r.nw, d, workload.AllToOne(d.Spec.VMs), experiments.HoseFairShare)
		})
	}
	agg := d.VMIDs[0]
	for i := 1; i < d.Spec.VMs; i++ {
		r.pairs = append(r.pairs, vmPair{d.Endpoints[i], agg})
	}
	// A round moves (N-1)·M bytes into the aggregator's receive hose B;
	// rounds offer a quarter of that rate. Each gap is at least the time
	// the hose takes to carry one round, so every round starts with the
	// senders' per-destination credit refilled: the tenant stays within
	// its arrival curve, which is the precondition of the guarantee.
	// (Plain exponential gaps let a round start inside the previous
	// one's refill time, and its messages are then paced past M/Bmax +
	// d by the tenant's own excess.)
	refill := float64(d.Spec.VMs-1) * float64(msg) / g.BandwidthBps * 1e9
	gap := func() int64 { return int64(refill + rng.Exp(3*refill)) }
	mine := &[]float64{}
	r.tenantLat = append(r.tenantLat, mine)
	done := func(m *transport.Message) {
		r.completed++
		lat := m.Latency()
		*mine = append(*mine, float64(lat)/1e3)
		r.latA = append(r.latA, float64(lat)/1e3)
		if lat > bound {
			r.late++
		}
		if m.RTOs > 0 {
			r.rtoMsgs++
		}
	}
	next := gap()
	var round func()
	round = func() {
		for i := 1; i < d.Spec.VMs; i++ {
			r.submitted++
			d.Endpoints[i].SendMessage(agg, msg, done)
		}
		next += gap()
		if next < r.p.horizonNs {
			r.nw.Sim.At(next, round)
		}
	}
	r.nw.Sim.At(next, round)
}

// startClassB starts the all-to-all shuffle: every VM streams
// fixed-size messages to each peer on another server until the horizon.
func (r *dcRep) startClassB(d *experiments.Deployment, tr *tracer) {
	n := d.Spec.VMs
	if r.p.scheme.Paced() {
		tr.do("deploy", "experiments.CoordinateHose", -1, func() {
			experiments.CoordinateHose(r.nw, d, workload.AllToAll(n), experiments.HoseFairShare)
		})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || d.Placement.Servers[i] == d.Placement.Servers[j] {
				continue
			}
			ep, dst := d.Endpoints[i], d.VMIDs[j]
			r.pairs = append(r.pairs, vmPair{ep, dst})
			var pump func(*transport.Message)
			pump = func(prev *transport.Message) {
				if prev != nil {
					r.completed++
					if prev.RTOs > 0 {
						r.rtoMsgs++
					}
				}
				if r.nw.Sim.Now() < r.p.horizonNs {
					r.submitted++
					ep.SendMessage(dst, r.p.classBMsg, pump)
				}
			}
			pump(nil)
		}
	}
}

// dataPkts counts the data packets the transport sent, retransmissions
// included and acks and voids excluded. checkNetwork requires a
// loss-free fabric, so every one of them was delivered.
func (r *dcRep) dataPkts() int64 {
	var n int64
	for _, p := range r.pairs {
		n += p.ep.Conn(p.dst).SegmentsOut
	}
	return n
}

// failedOps counts the rep's class-A messages over their guarantee
// and its messages unfinished at drain end.
func (r *dcRep) failedOps() int64 { return r.late + r.submitted - r.completed }

// checkNetwork requires a loss-free fabric and a clean guarantee audit.
func (r *dcRep) checkNetwork(rep *report, i int) {
	rep.check(r.nw.TotalDrops() == 0, "rep %d: %d switch drops", i, r.nw.TotalDrops())
	if r.audit != nil {
		rep.check(r.audit.TotalViolations() == 0, "rep %d: %d guarantee-audit violations", i, r.audit.TotalViolations())
	}
}

// simulate runs the rep to drain end and returns its wall time.
func (r *dcRep) simulate(tr *tracer) (wall float64, events int) {
	t0 := time.Now()
	tr.do("netsim", "netsim.Sim.Run", -1, func() { events = r.nw.Sim.Run(r.p.horizonNs + r.p.drainNs) })
	return since(t0), events
}

// runDCPaced is the dc-paced workload: Silo placement, pacing, hose
// coordination and TCP on the sequential engine, with the guarantee
// auditor, metrics registry and SLO windows attached.
func runDCPaced(cfg config) (*report, error) {
	p := defaultDC(cfg.tiny)
	if cfg.plant == "unpaced" {
		p.scheme = experiments.SchemeTCP
	}
	if cfg.tr != nil {
		return traceDCPaced(cfg, p)
	}
	rep := newReport()
	var setups, rates, rawRates, rss, latA, tenantP50 []float64
	var digest digester
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < dcLatReps || time.Now().Before(deadline); i++ {
		sub := cfg.seed*1000 + uint64(i)
		resetPeakRSS()
		t0 := time.Now()
		r, err := setupDC(p, sub, planeStandard, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		clk := readSteal()
		wall, _ := r.simulate(nil)
		host := clk.unstolen(wall)
		pk := r.dataPkts()
		rates = append(rates, float64(pk)/host)
		rawRates = append(rawRates, float64(pk)/wall)
		rss = append(rss, peakRSSMB())
		rep.attempted += r.submitted
		rep.failed += r.failedOps()
		r.checkNetwork(rep, i)
		if i < dcLatReps {
			latA = append(latA, r.latA...)
			for _, t := range r.tenantLat {
				if len(*t) > 0 {
					tenantP50 = append(tenantP50, pct(*t, 50))
				}
			}
			digest.add(fmt.Sprintf("%016x/%d/%d", r.decision.sum(), r.completed, pk))
		}
		if i < 3 {
			rep.printf("dc-paced rep %d (sub-seed %d): tenants=%d (class A %d) vms=%d msgs=%d late=%d unfinished=%d drops=%d rto_msgs=%d data_pkts=%d sim_wall=%.3fs setup=%.4fs",
				i, sub, r.tenants, r.classA, r.vms, r.submitted, r.late, r.submitted-r.completed, r.nw.TotalDrops(), r.rtoMsgs, pk, wall, setups[i])
		}
	}
	digest.add(fmt.Sprint(pct(latA, 50), pct(latA, 99), len(latA)))
	rep.digest = fmt.Sprintf("%016x over the first %d reps' decisions, message counts and data packets", digest.sum(), dcLatReps)
	rep.setMedian("setup_s", "s", setups)
	rep.setMedian("ops_per_s", "1/s", rates)
	rep.setMedian("peak_rss_mb", "MB", rss)
	// The pooled class-A median sits at a gap between two latency
	// clusters and jumps across it from seed to seed, so the gated
	// median is the typical tenant's median.
	rep.set("op_p50_us", "us", pct(tenantP50, 50))
	rep.set("op_p99_us", "us", pct(latA, 99))
	rep.printf("dc-paced: reps=%d sim_pkts_per_s=%.0f (median of reps, one tenant set each; data packets delivered per unstolen host second; %.0f per raw host second)",
		len(rates), quartiles(rates)[1], quartiles(rawRates)[1])
	rep.printf("msg_p50_us=%.2f msg_p90_us=%.2f msg_p99_us=%.2f (n=%d class-A messages over the first %d reps, %d beyond p99; simulated time)",
		pct(latA, 50), pct(latA, 90), pct(latA, 99), len(latA), dcLatReps, beyond(latA, 99))
	rep.printf("tenant_msg_p50_us=%.2f (median over n=%d class-A tenants of each tenant's median message latency)", pct(tenantP50, 50), len(tenantP50))
	return rep, nil
}
