package placement

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// Property: the closed-form queue bound of a port whose aggregate is a
// true two-piece curve (peak above rate) never falls when the port
// gains a contribution, up to certSlack of float rounding. An aggregate
// with peak at or below rate is bounded as a plain token bucket, which
// overstates it, so there the bound can fall (a Remove can even raise
// it); certOverrun therefore trusts such a contribution only for its
// rate. Second, a contribution certOverrun flags fails the admission
// check on any state of the port, also once its ingress cap and
// inflation grow: structuralReject carries verdicts from an empty port
// to every layout on every tree with exactly this.
func TestQueueBoundFastMonotoneProperty(t *testing.T) {
	m := NewManager(mustSmallTree(), Options{})
	ports := []int{m.tree.ServerUpPortID(0), m.tree.RackDownPortID(0), m.tree.RackUpPortID(0)}
	type draw struct {
		k, n          int
		g             tenant.Guarantee
		ingress, infl float64
	}
	drawCut := func(rng *stats.Rand) draw {
		n := 2 + rng.Intn(60)
		d := draw{k: 1 + rng.Intn(n-1), n: n,
			g: tenant.Guarantee{
				BandwidthBps: float64(1+rng.Intn(40)) * 50 * mbps,
				BurstBytes:   float64(1+rng.Intn(40)) * 5e3,
			},
			ingress: float64(1+rng.Intn(8)) * 2.5 * gbps,
			infl:    float64(rng.Intn(4)) * 1e-4,
		}
		d.g.BurstRateBps = d.g.BandwidthBps * float64(1+rng.Intn(20))
		if rng.Float64() < 0.2 {
			d.ingress = math.Inf(1)
		}
		return d
	}
	cut := func(d draw) contribution { return m.cutContribution(d.k, d.n, d.g, d.ingress, d.infl) }
	flagged, byRate := 0, 0
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		pid := ports[rng.Intn(len(ports))]
		rate, capacity := m.portRate[pid], m.portCap[pid]
		var st portState
		var held []contribution
		for i := rng.Intn(5); i > 0; i-- {
			c := cut(drawCut(rng))
			st.add(c)
			held = append(held, c)
		}
		if len(held) > 1 && rng.Float64() < 0.5 {
			st.remove(held[0])
		}
		d := drawCut(rng)
		extra, gain := cut(d), cut(drawCut(rng))
		if total := st.Peak + extra.Peak; total > st.Rate+extra.Rate {
			before := queueBoundFast(rate, &st, extra)
			grown := st
			grown.add(gain)
			if after := queueBoundFast(rate, &grown, extra); after < before*(1-certSlack) {
				t.Logf("seed %d: bound fell from %v to %v (state %+v, gain %+v, extra %+v, rate %v)",
					seed, before, after, st, gain, extra, rate)
				return false
			}
		}
		if !m.certOverrun(pid, extra) {
			return true
		}
		flagged++
		if extra.Peak <= extra.Rate {
			byRate++
		}
		d.ingress *= 1 + rng.Float64()
		d.infl += float64(rng.Intn(3)) * 1e-4
		if b := queueBoundFast(rate, &st, cut(d)); b <= capacity+1e-12 {
			t.Logf("seed %d: certOverrun flagged %+v on port %d, but %+v passes on state %+v (bound %v, capacity %v)",
				seed, extra, pid, cut(d), st, b, capacity)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if flagged < 500 {
		t.Errorf("certOverrun flagged only %d of 5000 draws", flagged)
	}
	t.Logf("certOverrun flagged %d draws, %d of them by rate alone", flagged, byRate)
}

// forEachLayout calls fn with every assignment of n VMs to the tree's
// servers that each server's resource cap allows, as a sorted per-VM
// server list, until fn returns false.
func forEachLayout(m *Manager, spec *tenant.Spec, fn func(servers []int) bool) {
	cnt := make([]int, m.tree.Servers())
	var servers []int
	stop := false
	var rec func(s, left int)
	rec = func(s, left int) {
		if stop {
			return
		}
		if left == 0 {
			servers = servers[:0]
			for srv, c := range cnt {
				for ; c > 0; c-- {
					servers = append(servers, srv)
				}
			}
			stop = !fn(servers)
			return
		}
		if s == len(cnt) {
			return
		}
		for c := min(m.maxVMsByResources(spec, s), left); c >= 0; c-- {
			cnt[s] = c
			rec(s+1, left-c)
		}
		cnt[s] = 0
	}
	rec(0, spec.VMs)
}

// firstValidLayout returns the first layout of spec that passes
// layoutValid, among those for which keep returns true, or nil.
func firstValidLayout(m *Manager, spec *tenant.Spec, keep func(*layout) bool) []int {
	var found []int
	var lay layout
	forEachLayout(m, spec, func(servers []int) bool {
		lay.build(m.tree, servers)
		if keep(&lay) && m.layoutValid(spec, &lay) {
			found = slices.Clone(servers)
			return false
		}
		return true
	})
	return found
}

func certTree(t *testing.T, cfg topology.Config) *topology.Tree {
	t.Helper()
	cfg.LinkBps, cfg.BufferBytes, cfg.NICBufferBytes = 10*gbps, 312e3, 62.5e3
	if cfg.PodOversub == 0 {
		cfg.PodOversub = 1
	}
	tree, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// On trees small enough to enumerate every layout, whenever the
// certificate fires no layout at any span passes layoutValid on the
// empty tree. The draws make it fire and not fire often, so the check
// is not vacuous.
func TestStructuralRejectSoundByEnumeration(t *testing.T) {
	trees := []*topology.Tree{
		certTree(t, topology.Config{Pods: 1, RacksPerPod: 2, ServersPerRack: 4, SlotsPerServer: 1, RackOversub: 2}),
		certTree(t, topology.Config{Pods: 2, RacksPerPod: 2, ServersPerRack: 2, SlotsPerServer: 2, RackOversub: 1}),
		certTree(t, topology.Config{Pods: 1, RacksPerPod: 2, ServersPerRack: 4, SlotsPerServer: 2, RackOversub: 1,
			CPUPerServer: 4}),
	}
	fired, held := make([]int, len(trees)), make([]int, len(trees))
	rng := stats.NewRand(7)
	for i := 0; i < 900; i++ {
		ti := i % len(trees)
		tree := trees[ti]
		m := NewManager(tree, Options{Workers: 1})
		spec := tenant.Spec{
			ID: i + 1, Name: "enum", VMs: 3 + rng.Intn(5),
			Guarantee: tenant.Guarantee{
				BandwidthBps: float64(1+rng.Intn(10)) * 50 * mbps,
				BurstBytes:   float64(1+rng.Intn(16)) * 12.5e3,
				BurstRateBps: float64(1+rng.Intn(8)) * 1.25 * gbps,
			},
		}
		if tree.Config().CPUPerServer > 0 {
			spec.CPUPerVM = float64(1 + rng.Intn(3))
		}
		if !m.structuralReject(&spec, m.newReqMemo(&spec)) {
			held[ti]++
			continue
		}
		fired[ti]++
		if lay := firstValidLayout(m, &spec, func(*layout) bool { return true }); lay != nil {
			t.Fatalf("draw %d: certificate fired for %+v on %+v, but layout %v is valid",
				i, spec, tree.Config(), lay)
		}
	}
	for ti := range trees {
		if fired[ti] < 20 || held[ti] < 20 {
			t.Errorf("tree %d: draws do not exercise both outcomes: fired %d, held %d", ti, fired[ti], held[ti])
		}
	}
	t.Logf("certificate fired %v times, held back %v", fired, held)
}

// Every rack-local layout overruns a ToR-down port here, and a layout
// over two racks fits, because the pod downlink (one link rate) caps
// the peak that reaches a ToR from outside the rack. The certificate
// must not fire: its beyond-rack floor is what keeps it back.
func TestStructuralRejectKeepsBeyondRackLayouts(t *testing.T) {
	tree := certTree(t, topology.Config{Pods: 1, RacksPerPod: 2, ServersPerRack: 4, SlotsPerServer: 1, RackOversub: 4})
	m := NewManager(tree, Options{Workers: 1})
	spec := tenant.Spec{ID: 1, Name: "wide", VMs: 4,
		Guarantee: tenant.Guarantee{BandwidthBps: 50 * mbps, BurstBytes: 200e3, BurstRateBps: 10 * gbps}}
	rackLocal := func(lay *layout) bool { return len(lay.racks) == 1 }
	if lay := firstValidLayout(m, &spec, rackLocal); lay != nil {
		t.Fatalf("rack-local layout %v is valid; the case needs none to be", lay)
	}
	lay := firstValidLayout(m, &spec, func(lay *layout) bool { return !rackLocal(lay) })
	if lay == nil {
		t.Fatal("no beyond-rack layout is valid; the case needs one")
	}
	if m.structuralReject(&spec, m.newReqMemo(&spec)) {
		t.Fatalf("certificate fired, but layout %v is valid", lay)
	}
}

// Property: on a tree whose racks are mostly occupied, Table-3 tenants
// under churn get the same decisions and server lists from the
// reference path and from the fast path at 1 and 4 workers, under each
// admission ablation. Certified rejects are then checked against the
// reference on occupied racks, not only on pristine ones.
func TestOccupiedScopeEquivalenceProperty(t *testing.T) {
	for _, abl := range []Options{{}, {DelayCheckUsesBound: true}, {PlainAggregation: true}} {
		f := func(seed uint64) bool { return occupiedEquivalence(t, abl, seed) }
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%+v: %v", abl, err)
		}
	}
}

// occupiedEquivalence runs one seed of TestOccupiedScopeEquivalenceProperty
// under the ablations set in abl. It compares decisions and port bounds
// only: constraint 1 is not rechecked, because a Remove can leave a port
// whose aggregate peak has fallen to its rate, which the closed form
// bounds as a plain token bucket, above its capacity on either path.
func occupiedEquivalence(t *testing.T, abl Options, seed uint64) bool {
	tree := scaleTree(0, 0)
	var ms []*Manager
	for _, o := range []Options{{NoFastPath: true}, {Workers: 1}, {Workers: 4}} {
		o.DelayCheckUsesBound, o.PlainAggregation = abl.DelayCheckUsesBound, abl.PlainAggregation
		ms = append(ms, NewManager(tree, o))
	}
	rng := stats.NewRand(seed)
	var live []int
	place := func(spec tenant.Spec) bool {
		plRef, errRef := ms[0].Place(spec)
		for w, m := range ms[1:] {
			pl, err := m.Place(spec)
			if (errRef == nil) != (err == nil) || errRef == nil && !slices.Equal(plRef.Servers, pl.Servers) {
				t.Logf("seed %d %+v id %d manager %d: ref %v %v, fast %v %v",
					seed, abl, spec.ID, w+1, plRef, errRef, pl, err)
				return false
			}
		}
		if errRef == nil {
			live = append(live, spec.ID)
		}
		return true
	}
	// Warm up with small tenants until at least 12 of the 16 racks
	// host a VM.
	id := 1
	for occupied := 0; occupied < 12 && id < 400; id++ {
		spec := table3Spec(rng, id, false)
		spec.VMs = min(spec.VMs, 6)
		if !place(spec) {
			return false
		}
		occupied = 0
		for r := 0; r < tree.Racks(); r++ {
			if !ms[0].ix.rackPristine(r) {
				occupied++
			}
		}
	}
	for end := id + 80; id < end; id++ {
		if rng.Float64() < 0.3 && len(live) > 0 {
			i := rng.Intn(len(live))
			for _, m := range ms {
				if err := m.Remove(live[i]); err != nil {
					t.Logf("remove %d: %v", live[i], err)
					return false
				}
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		if !place(table3Spec(rng, id, false)) {
			return false
		}
	}
	for pid := 0; pid < tree.NumPorts(); pid++ {
		br := ms[0].QueueBound(pid)
		for _, m := range ms[1:] {
			if bf := m.QueueBound(pid); math.IsInf(br, 1) != math.IsInf(bf, 1) ||
				!math.IsInf(br, 1) && math.Abs(br-bf) > 1e-9 {
				t.Logf("seed %d %+v: port %d bound drift: ref %v fast %v", seed, abl, pid, br, bf)
				return false
			}
		}
	}
	return true
}

// Each rejection increments exactly one reason series: a certified
// reject "structural" on the fast path (and "no-fit" on the reference
// path, which has no certificate), a failed scope search "no-fit", and
// a bad spec "invalid".
func TestRejectReasonCounters(t *testing.T) {
	big := tenant.Spec{ID: 1, Name: "big", VMs: 60, FaultDomains: 2,
		Guarantee: tenant.Guarantee{BandwidthBps: 250 * mbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: gbps}}
	bulk := func(id, vms int) tenant.Spec {
		return tenant.Spec{ID: id, Name: "bulk", VMs: vms,
			Guarantee: tenant.Guarantee{BandwidthBps: 100 * mbps, BurstBytes: 1.5e3, BurstRateBps: 100 * mbps}}
	}
	type counts struct{ structural, noFit, invalid int64 }
	// Failing every server leaves the search no slot to try.
	failAll := func(m *Manager) {
		for s := 0; s < m.tree.Servers(); s++ {
			m.FailServers(s)
		}
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		setup func(*Manager)
		spec  tenant.Spec
		want  counts
	}{
		{"structural", Options{}, nil, big, counts{structural: 1}},
		{"structural on the reference path", Options{NoFastPath: true}, nil, big, counts{noFit: 1}},
		{"no fit", Options{}, failAll, bulk(2, 4), counts{noFit: 1}},
		{"invalid spec", Options{}, nil, bulk(3, 0), counts{invalid: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Ten servers per rack at 1:5 give each ToR a pod downlink
			// of two links, so the beyond-rack floor overruns too.
			m := NewManager(certTree(t, topology.Config{Pods: 2, RacksPerPod: 2, ServersPerRack: 10, SlotsPerServer: 8,
				RackOversub: 5, PodOversub: 5}), tc.opts)
			if tc.setup != nil {
				tc.setup(m)
			}
			mx := m.EnableMetrics(obs.NewRegistry())
			if _, err := m.Place(tc.spec); err == nil {
				t.Fatal("placed; want a reject")
			} else if tc.want.invalid == 0 && !errors.Is(err, ErrRejected) {
				t.Fatalf("err %v, want ErrRejected", err)
			}
			got := counts{mx.RejectedStructural.Value(), mx.RejectedNoFit.Value(), mx.RejectedOther.Value()}
			if got != tc.want {
				t.Errorf("reason counters %+v, want %+v", got, tc.want)
			}
		})
	}
}
