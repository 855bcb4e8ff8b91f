package placement

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// randomSpec draws a tenant spec with varied guarantees, including the
// occasional best-effort tenant, delay-bounded tenants and single-VM
// tenants (which put no traffic on the network).
func randomSpec(rng *stats.Rand, id int) tenant.Spec {
	vms := 1 + rng.Intn(10)
	fd := 1 + rng.Intn(3)
	if fd > vms {
		fd = vms
	}
	spec := tenant.Spec{
		ID:   id,
		Name: "equiv",
		VMs:  vms,
		Guarantee: tenant.Guarantee{
			BandwidthBps: float64(1+rng.Intn(30)) * 100 * mbps,
			BurstBytes:   float64(1+rng.Intn(12)) * 2.5e3,
			DelayBound:   float64(rng.Intn(4)) * 5e-4, // 0 .. 1.5ms
			BurstRateBps: float64(1+rng.Intn(10)) * gbps,
		},
		FaultDomains: fd,
	}
	if rng.Float64() < 0.15 {
		spec.Class = tenant.ClassBestEffort
	}
	return spec
}

// Property: replaying any request/removal sequence through the
// reference admission path (NoFastPath: curve-materializing bounds,
// serial scan, no memoization or scope skipping) and through the fast
// path (closed-form bounds, memoized contributions, headroom skipping,
// parallel scope search) yields identical accept/reject decisions,
// identical server assignments, and per-port queue bounds that agree
// to 1e-9 seconds.
func TestFastPathEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		tree := mustSmallTree()
		ref := NewManager(tree, Options{NoFastPath: true})
		fast := NewManager(tree, Options{Workers: 4})
		rng := stats.NewRand(seed)
		ops := int(opsRaw)%50 + 20
		live := []int{}
		nextID := 1
		for i := 0; i < ops; i++ {
			if len(live) > 0 && rng.Float64() < 0.35 {
				idx := rng.Intn(len(live))
				if err := ref.Remove(live[idx]); err != nil {
					t.Logf("ref remove: %v", err)
					return false
				}
				if err := fast.Remove(live[idx]); err != nil {
					t.Logf("fast remove: %v", err)
					return false
				}
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			spec := randomSpec(rng, nextID)
			nextID++
			plRef, errRef := ref.Place(spec)
			plFast, errFast := fast.Place(spec)
			if (errRef == nil) != (errFast == nil) {
				t.Logf("seed %d op %d: decisions differ: ref err %v, fast err %v (spec %+v)",
					seed, i, errRef, errFast, spec)
				return false
			}
			if errRef != nil {
				continue
			}
			if len(plRef.Servers) != len(plFast.Servers) {
				t.Logf("seed %d op %d: server count differs", seed, i)
				return false
			}
			for j := range plRef.Servers {
				if plRef.Servers[j] != plFast.Servers[j] {
					t.Logf("seed %d op %d: server %d differs: ref %d fast %d",
						seed, i, j, plRef.Servers[j], plFast.Servers[j])
					return false
				}
			}
			live = append(live, spec.ID)
		}
		for pid := 0; pid < tree.NumPorts(); pid++ {
			br, bf := ref.QueueBound(pid), fast.QueueBound(pid)
			if math.IsInf(br, 1) != math.IsInf(bf, 1) {
				t.Logf("seed %d: port %d bound infinity mismatch: ref %v fast %v", seed, pid, br, bf)
				return false
			}
			if !math.IsInf(br, 1) && math.Abs(br-bf) > 1e-9 {
				t.Logf("seed %d: port %d bound drift: ref %v fast %v", seed, pid, br, bf)
				return false
			}
		}
		if err := ref.VerifyInvariants(); err != nil {
			t.Logf("ref invariants: %v", err)
			return false
		}
		if err := fast.VerifyInvariants(); err != nil {
			t.Logf("fast invariants: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the ablation that routes constraint 2 through live queue
// bounds exercises the cached-bound path; it must agree with the
// reference too.
func TestFastPathEquivalenceDelayBoundAblation(t *testing.T) {
	f := func(seed uint64) bool {
		tree := mustSmallTree()
		ref := NewManager(tree, Options{NoFastPath: true, DelayCheckUsesBound: true})
		fast := NewManager(tree, Options{DelayCheckUsesBound: true})
		rng := stats.NewRand(seed)
		for id := 1; id <= 40; id++ {
			spec := randomSpec(rng, id)
			spec.Guarantee.DelayBound = float64(1+rng.Intn(4)) * 5e-4
			_, errRef := ref.Place(spec)
			_, errFast := fast.Place(spec)
			if (errRef == nil) != (errFast == nil) {
				t.Logf("seed %d id %d: decisions differ: ref err %v, fast err %v", seed, id, errRef, errFast)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Worker count must not affect outcomes: the parallel scope search is
// defined to return the lowest-index success, exactly like the serial
// first-fit scan.
func TestWorkerCountDeterminism(t *testing.T) {
	tree := mustSmallTree()
	serial := NewManager(tree, Options{Workers: 1})
	wide := NewManager(tree, Options{Workers: 8})
	rng := stats.NewRand(11)
	for id := 1; id <= 120; id++ {
		spec := randomSpec(rng, id)
		plS, errS := serial.Place(spec)
		plW, errW := wide.Place(spec)
		if (errS == nil) != (errW == nil) {
			t.Fatalf("id %d: decisions differ between 1 and 8 workers: %v vs %v", id, errS, errW)
		}
		if errS != nil {
			continue
		}
		for j := range plS.Servers {
			if plS.Servers[j] != plW.Servers[j] {
				t.Fatalf("id %d: placements differ between 1 and 8 workers", id)
			}
		}
	}
	if err := serial.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := wide.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	if serial.Workers() != 1 || wide.Workers() != 8 {
		t.Fatalf("worker counts not honored: %d, %d", serial.Workers(), wide.Workers())
	}
}

// scaleTree is a 2-pod × 8-rack tree at the paper's 1:5
// oversubscription: wide enough that most racks stay pristine, so the
// pristine-scope reuse and the datacenter pack's rack skipping decide
// most candidates. cpu and mem declare per-server capacities (0: none).
func scaleTree(cpu, mem float64) *topology.Tree {
	tree, err := topology.New(topology.Config{
		Pods:            2,
		RacksPerPod:     8,
		ServersPerRack:  4,
		SlotsPerServer:  8,
		LinkBps:         10 * gbps,
		BufferBytes:     312e3,
		NICBufferBytes:  62.5e3,
		RackOversub:     5,
		PodOversub:      5,
		CPUPerServer:    cpu,
		MemoryPerServer: mem,
	})
	if err != nil {
		panic(err)
	}
	return tree
}

// table3Spec draws a Table-3 tenant: class A {250 Mbps, 15 KB, 1 ms}
// or class B {2 Gbps, 1.5 KB}, up to 60 VMs, so large class-A tenants
// are structural rejects at rack, pod and datacenter scope. With
// resources set it also draws CPU and memory demands whose sums do not
// round-trip exactly in floating point.
func table3Spec(rng *stats.Rand, id int, resources bool) tenant.Spec {
	vms := min(1+int(rng.Exp(16)), 60)
	g := tenant.Guarantee{BandwidthBps: 250 * mbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: gbps}
	if rng.Float64() < 0.5 {
		g = tenant.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps}
	}
	spec := tenant.Spec{ID: id, Name: "t3", VMs: vms, Guarantee: g, FaultDomains: min(1+rng.Intn(2), vms)}
	if resources {
		demands := []float64{0.1, 0.5, 0.7, 2, 4}
		spec.CPUPerVM = demands[rng.Intn(len(demands))]
		spec.MemoryPerVM = demands[rng.Intn(len(demands))]
	}
	return spec
}

// Property: on a mostly pristine tree, Table-3 tenants under place,
// remove and server fail/restore churn get the same decisions, the
// same server lists and queue bounds within 1e-9 from the reference
// path (NoFastPath) and from the fast path at 1 and 4 workers, with
// and without CPU/memory constraints.
func TestPristineScopeEquivalenceProperty(t *testing.T) {
	for _, resources := range []bool{false, true} {
		f := func(seed uint64) bool {
			tree := scaleTree(0, 0)
			if resources {
				tree = scaleTree(4, 4)
			}
			ms := []*Manager{
				NewManager(tree, Options{NoFastPath: true}),
				NewManager(tree, Options{Workers: 1}),
				NewManager(tree, Options{Workers: 4}),
			}
			rng := stats.NewRand(seed)
			var live, failed []int
			for id := 1; id <= 100; id++ {
				switch u := rng.Float64(); {
				case u < 0.3 && len(live) > 0:
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
				case u < 0.38:
					s := rng.Intn(tree.Servers())
					for _, m := range ms {
						m.FailServers(s)
					}
					failed = append(failed, s)
					continue
				case u < 0.44 && len(failed) > 0:
					for _, m := range ms {
						m.RestoreServers(failed...)
					}
					failed = failed[:0]
					continue
				}
				spec := table3Spec(rng, id, resources)
				plRef, errRef := ms[0].Place(spec)
				for w, m := range ms[1:] {
					pl, err := m.Place(spec)
					if (errRef == nil) != (err == nil) {
						t.Logf("seed %d resources %v id %d manager %d: decisions differ: ref %v, fast %v (spec %+v)",
							seed, resources, id, w+1, errRef, err, spec)
						return false
					}
					if errRef == nil && !slices.Equal(plRef.Servers, pl.Servers) {
						t.Logf("seed %d resources %v id %d manager %d: servers differ: ref %v fast %v",
							seed, resources, id, w+1, plRef.Servers, pl.Servers)
						return false
					}
				}
				if errRef == nil {
					live = append(live, id)
				}
			}
			for pid := 0; pid < tree.NumPorts(); pid++ {
				br := ms[0].QueueBound(pid)
				for _, m := range ms[1:] {
					if bf := m.QueueBound(pid); math.IsInf(br, 1) != math.IsInf(bf, 1) ||
						!math.IsInf(br, 1) && math.Abs(br-bf) > 1e-9 {
						t.Logf("seed %d: port %d bound drift: ref %v fast %v", seed, pid, br, bf)
						return false
					}
				}
			}
			for _, m := range ms {
				if err := m.VerifyInvariants(); err != nil {
					t.Logf("seed %d: invariants: %v", seed, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("resources=%v: %v", resources, err)
		}
	}
}
