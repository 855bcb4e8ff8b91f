package placement

import (
	"testing"

	"repro/internal/tenant"
	"repro/internal/topology"
)

func resourceTree(t *testing.T, cpu, mem float64) *topology.Tree {
	t.Helper()
	tree, err := topology.New(topology.Config{
		Pods:            1,
		RacksPerPod:     2,
		ServersPerRack:  4,
		SlotsPerServer:  8,
		LinkBps:         10 * gbps,
		BufferBytes:     312e3,
		NICBufferBytes:  62.5e3,
		RackOversub:     1,
		PodOversub:      1,
		CPUPerServer:    cpu,
		MemoryPerServer: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestCPUConstraintLimitsPacking(t *testing.T) {
	// 8 slots but only 4 CPU per server; VMs demanding 2 CPU each
	// pack at most 2 per server.
	m := NewManager(resourceTree(t, 4, 0), Options{})
	spec := tenant.Spec{
		ID: 1, Name: "cpu", VMs: 8, CPUPerVM: 2,
		Guarantee: tenant.Guarantee{BandwidthBps: 10 * mbps, BurstRateBps: gbps},
	}
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for _, s := range pl.DistinctServers() {
		if got := pl.VMsOnServer(s); got > 2 {
			t.Errorf("server %d hosts %d VMs; CPU allows 2", s, got)
		}
	}
	if len(pl.DistinctServers()) < 4 {
		t.Errorf("8 VMs at 2 CPU on 4-CPU servers need >= 4 servers, got %v", pl.Servers)
	}
}

func TestMemoryConstraintRejectsOverload(t *testing.T) {
	// 8 servers x 16 memory = 128 total; 9 VMs x 16 memory cannot fit.
	m := NewManager(resourceTree(t, 0, 16), Options{})
	spec := tenant.Spec{
		ID: 1, Name: "mem", VMs: 9, MemoryPerVM: 16,
		Guarantee: tenant.Guarantee{BandwidthBps: 10 * mbps, BurstRateBps: gbps},
	}
	if _, err := m.Place(spec); err == nil {
		t.Error("memory-infeasible tenant accepted")
	}
	// 8 VMs fit exactly, one per server.
	spec.ID = 2
	spec.VMs = 8
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(pl.DistinctServers()) != 8 {
		t.Errorf("expected one VM per server, got %v", pl.Servers)
	}
}

func TestResourcesRestoredOnRemove(t *testing.T) {
	m := NewManager(resourceTree(t, 4, 32), Options{})
	spec := tenant.Spec{
		ID: 1, Name: "r", VMs: 8, CPUPerVM: 2, MemoryPerVM: 8,
		Guarantee: tenant.Guarantee{BandwidthBps: 10 * mbps, BurstRateBps: gbps},
	}
	if _, err := m.Place(spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	// The same tenant fits again: resources were restored exactly.
	spec.ID = 2
	if _, err := m.Place(spec); err != nil {
		t.Errorf("re-place after remove failed: %v", err)
	}
}

func TestBestEffortRespectsResources(t *testing.T) {
	m := NewManager(resourceTree(t, 2, 0), Options{})
	spec := tenant.Spec{
		ID: 1, Name: "be", VMs: 4, Class: tenant.ClassBestEffort, CPUPerVM: 2,
	}
	pl, err := m.Place(spec)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for _, s := range pl.DistinctServers() {
		if pl.VMsOnServer(s) > 1 {
			t.Errorf("server %d over CPU: %d VMs", s, pl.VMsOnServer(s))
		}
	}
}

func TestUnconstrainedTopologyIgnoresResourceDemands(t *testing.T) {
	// Topology declares no CPU/memory: demands are ignored, slots
	// rule.
	m := NewManager(resourceTree(t, 0, 0), Options{})
	spec := tenant.Spec{
		ID: 1, Name: "x", VMs: 8, CPUPerVM: 1000, MemoryPerVM: 1000,
		Guarantee: tenant.Guarantee{BandwidthBps: 10 * mbps, BurstRateBps: gbps},
	}
	if _, err := m.Place(spec); err != nil {
		t.Errorf("unconstrained topology rejected: %v", err)
	}
}

func TestNegativeResourceDemandRejected(t *testing.T) {
	m := NewManager(resourceTree(t, 4, 4), Options{})
	if _, err := m.Place(tenant.Spec{ID: 1, Name: "n", VMs: 1, CPUPerVM: -1}); err == nil {
		t.Error("negative CPU demand accepted")
	}
}

// An emptied server must offer exactly its configured CPU and memory
// again. Adding and subtracting 0.7 and 0.1 from 4 leaves
// 3.9999999999999996, which would fit one 2-CPU VM instead of two; the
// same must hold when the VMs leave a failed server.
func TestEmptiedServerResourcesExact(t *testing.T) {
	for _, fail := range []bool{false, true} {
		m := NewManager(resourceTree(t, 4, 4), Options{})
		for id, cpu := range []float64{0.7, 0.1} {
			spec := tenant.Spec{ID: id + 1, Name: "f", VMs: 1, CPUPerVM: cpu, MemoryPerVM: cpu}
			pl, err := m.Place(spec)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Servers[0] != 0 {
				t.Fatalf("tenant %d landed on server %d, want 0", id+1, pl.Servers[0])
			}
		}
		if fail {
			m.FailServers(0)
		}
		for id := 1; id <= 2; id++ {
			if err := m.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		if fail {
			m.RestoreServers(0)
		}
		if m.freeCPU[0] != 4 || m.freeMem[0] != 4 {
			t.Fatalf("fail=%v: emptied server 0 has cpu %v mem %v, want 4 and 4", fail, m.freeCPU[0], m.freeMem[0])
		}
		pl, err := m.Place(tenant.Spec{ID: 3, Name: "two", VMs: 2, CPUPerVM: 2, MemoryPerVM: 2})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Servers[0] != 0 || pl.Servers[1] != 0 {
			t.Errorf("fail=%v: two 2-CPU VMs landed on %v, want both on the emptied server 0", fail, pl.Servers)
		}
	}
}
