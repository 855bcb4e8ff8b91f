package transport

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/pacer"
)

// pacedBulk starts a Silo-style paced Reno bulk transfer with stock
// 200 ms MinRTONs: one VM paced to 2 Gbps on host 0 streaming one
// message far larger than any run, to a receiver on host 1.
func pacedBulk(tb testing.TB) (*netsim.Network, *Fabric) {
	tb.Helper()
	nw := testNet(tb, 312e3)
	f := NewFabric(nw)
	h := nw.Hosts[0]
	h.EnablePacing(pacer.NewBatcher(10 * gbps))
	h.AddVM(pacer.NewVM(100, pacer.Guarantee{
		BandwidthBps: 2 * gbps, BurstBytes: 15e3, BurstRateBps: 10 * gbps, MTUBytes: 1518,
	}, 0))
	src := f.AddEndpoint(100, 0, Options{Paced: true})
	f.AddEndpoint(200, 1, Options{})
	src.SendMessage(200, 1<<40, nil)
	return nw, f
}

// TestPacedTransportSteadyState gates the paced data path: once the
// window and every freelist are warm, a millisecond of paced transfer
// allocates nothing, and the overflow heap stops growing — every ack
// re-arms the retransmission timer in place instead of queueing
// another 200 ms closure.
func TestPacedTransportSteadyState(t *testing.T) {
	nw, f := pacedBulk(t)
	nw.Sim.Run(10_000_000)
	hwm10 := nw.Sim.RuntimeCounters().FarHWM
	allocs := testing.AllocsPerRun(20, func() {
		nw.Sim.Run(nw.Sim.Now() + 1_000_000)
	})
	if allocs != 0 {
		t.Errorf("steady-state paced transport allocates %.1f times per simulated ms, want 0", allocs)
	}
	nw.Sim.Run(100_000_000)
	if hwm100 := nw.Sim.RuntimeCounters().FarHWM; hwm100 != hwm10 {
		t.Errorf("overflow-heap high water grew from %d at 10 ms to %d at 100 ms", hwm10, hwm100)
	}
	if d := nw.TotalDrops(); d != 0 {
		t.Errorf("paced bulk transfer dropped %d packets", d)
	}
	// 100 ms at the 2 Gbps guarantee is 25 MB.
	dst, _ := f.Endpoint(200)
	if got := dst.BytesReceived(100); got < 20_000_000 {
		t.Errorf("received %d bytes in 100 ms, want about 25 MB at 2 Gbps", got)
	}
}

// BenchmarkPacedTransport measures the paced Silo data path (transport,
// pacer and event loop together) per millisecond of simulated 2 Gbps
// bulk transfer; `make bench-paced` runs it with -benchmem, and its
// allocs/op must stay 0.
func BenchmarkPacedTransport(b *testing.B) {
	nw, _ := pacedBulk(b)
	nw.Sim.Run(10_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Sim.Run(nw.Sim.Now() + 1_000_000)
	}
}
