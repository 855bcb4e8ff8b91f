package placement

import (
	"errors"
	"testing"

	"repro/internal/tenant"
	"repro/internal/topology"
)

// A structural reject — a class-A tenant whose bursts fit no layout —
// must cost the same allocations on a 10-rack and a 40-rack tree with
// the same occupied racks: pristine racks and pods are decided once per
// request, and the scope search reuses its buffers.
func TestRejectAllocsIndependentOfFabricSize(t *testing.T) {
	allocs := func(racksPerPod int) float64 {
		tree, err := topology.New(topology.Config{
			Pods: 2, RacksPerPod: racksPerPod, ServersPerRack: 10, SlotsPerServer: 8,
			LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
			RackOversub: 5, PodOversub: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(tree, Options{Workers: 1})
		for id := 1; id <= 3; id++ {
			if _, err := m.Place(tenant.Spec{ID: id, Name: "small", VMs: 12, FaultDomains: 2,
				Guarantee: tenant.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps}}); err != nil {
				t.Fatal(err)
			}
		}
		big := tenant.Spec{ID: 99, Name: "big", VMs: 60, FaultDomains: 2,
			Guarantee: tenant.Guarantee{BandwidthBps: 250 * mbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: gbps}}
		if _, err := m.Place(big); !errors.Is(err, ErrRejected) {
			t.Fatalf("%d racks per pod: want a structural reject, got %v", racksPerPod, err)
		}
		return testing.AllocsPerRun(20, func() { m.Place(big) })
	}
	small, large := allocs(5), allocs(20)
	if small != large {
		t.Errorf("a rejected Place allocates %v times on 10 racks but %v on 40", small, large)
	}
	t.Logf("a rejected Place allocates %v times", small)
}
