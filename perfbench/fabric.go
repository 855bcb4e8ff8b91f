package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// fabricParams shapes the parallel-engine workload: the parscale
// fabric (16 pods × 2 racks × 2 servers = 64 hosts) under unpaced
// line-rate generators.
type fabricParams struct {
	pods, racks, servers int
	pktsPerHost          int
	crossEvery           int
}

func defaultFabric(tiny bool) fabricParams {
	p := fabricParams{pods: 16, racks: 2, servers: 2, pktsPerHost: 4000, crossEvery: 4}
	if tiny {
		p.pods, p.pktsPerHost = 4, 200
	}
	return p
}

// Timing of the generator traffic. Every delay component is even —
// 1500 B serializes in 1200 ns at 10 Gbps, links propagate in 200 ns,
// hosts send every 1400 ns — while host start offsets 14·k+1 are odd
// and distinct modulo the gap, so no two hosts' events tie and the
// outcome is identical on either engine at any worker count.
const (
	fabPktBytes = 1500
	fabGapNs    = 1400
	fabPropNs   = 200
)

// fabricGen is one host's generator: send, re-arm after the gap.
type fabricGen struct {
	host      *netsim.Host
	dsts      []int // destination of the i-th packet, cycled
	seq       int
	remaining int
	delivered int64
	delaysNs  []int64 // delivery delays of packets addressed to this host
	fn        func()
}

func (g *fabricGen) send() {
	sim := g.host.Sim()
	p := sim.AllocPacket()
	p.Src, p.SrcVM = g.host.ID, g.host.ID
	p.Dst = g.dsts[g.seq%len(g.dsts)]
	p.DstVM = p.Dst
	p.Size = fabPktBytes
	g.seq++
	g.host.Send(p)
	g.remaining--
	if g.remaining > 0 {
		sim.After(fabGapNs, g.fn)
	}
}

// fabricRep is one built fabric with its generators scheduled.
type fabricRep struct {
	nw       *netsim.Network
	gens     []*fabricGen
	injected int64
	horizon  int64
}

// setupFabric builds the fabric on the island engine (workers >= 1) or
// the sequential engine (workers == 0) and schedules seeded traffic:
// each host cycles over destinations that are in its own pod three
// times in four and in another pod once in four; the seed picks the
// peers and the start order. Every host sends the same number of
// packets, so the load stays balanced across islands on every seed.
func setupFabric(p fabricParams, seed uint64, workers int, tr *tracer) (*fabricRep, error) {
	var tree *topology.Tree
	var err error
	tr.do("topology", "topology.New", -1, func() {
		tree, err = topology.New(topology.Config{
			Pods: p.pods, RacksPerPod: p.racks, ServersPerRack: p.servers, SlotsPerServer: 4,
			LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 150e3,
			RackOversub: 1, PodOversub: 1,
		})
	})
	if err != nil {
		return nil, err
	}
	r := &fabricRep{}
	opts := netsim.Options{PropNs: fabPropNs}
	if workers >= 1 {
		tr.do("netsim", "netsim.BuildParallel", -1, func() {
			r.nw = netsim.BuildParallel(tree, opts, netsim.ParallelOptions{Workers: workers})
		})
	} else {
		tr.do("netsim", "netsim.Build", -1, func() { r.nw = netsim.Build(netsim.NewSim(), tree, opts) })
	}

	rng := stats.NewRand(seed)
	hosts := len(r.nw.Hosts)
	perPod := p.racks * p.servers
	// Destination slot 0 maps every pod onto another pod (same host
	// position); slots 1.. map every host onto another host of its pod.
	// Each slot is a permutation, so no host receives more than it
	// sends and the line-rate generators never overflow a buffer.
	slots := make([][]int, p.crossEvery)
	podMap := derangement(rng, p.pods)
	slots[0] = make([]int, hosts)
	for h := range slots[0] {
		slots[0][h] = podMap[h/perPod]*perPod + h%perPod
	}
	for i := 1; i < p.crossEvery; i++ {
		slots[i] = make([]int, hosts)
		for pod := 0; pod < p.pods; pod++ {
			for k, d := range derangement(rng, perPod) {
				slots[i][pod*perPod+k] = pod*perPod + d
			}
		}
	}
	order := rng.Perm(hosts)
	r.gens = make([]*fabricGen, hosts)
	for h := 0; h < hosts; h++ {
		dsts := make([]int, p.crossEvery)
		for i := range dsts {
			dsts[i] = slots[i][h]
		}
		r.injected += int64(p.pktsPerHost)
		g := &fabricGen{host: r.nw.Hosts[h], dsts: dsts, remaining: p.pktsPerHost}
		g.fn = g.send
		r.gens[h] = g
		r.nw.Hosts[h].OnDeliver = func(_ *netsim.Packet, delay int64) {
			g.delivered++
			g.delaysNs = append(g.delaysNs, delay)
		}
		r.nw.Hosts[h].FreeOnDeliver = true
	}
	for k, h := range order {
		r.nw.Sim.At(int64(14*k+1), r.gens[h].fn)
	}
	// The last injection plus ample drain, kept even.
	r.horizon = int64(14*(hosts-1)+1) + int64(p.pktsPerHost)*fabGapNs + 1_000_000
	r.horizon += r.horizon & 1
	return r, nil
}

// derangement returns a random permutation of 0..n-1 without fixed
// points.
func derangement(rng *stats.Rand, n int) []int {
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			ok = ok && i != v
		}
		if ok {
			return p
		}
	}
}

// simulate runs the rep to its horizon and returns the wall time.
func (r *fabricRep) simulate(tr *tracer) (wall float64, events int) {
	t0 := time.Now()
	tr.do("netsim", "netsim.Run", -1, func() { events = r.nw.Run(r.horizon) })
	return since(t0), events
}

func (r *fabricRep) delivered() int64 {
	var n int64
	for _, g := range r.gens {
		n += g.delivered
	}
	return n
}

// delaysUs pools every packet's delivery delay in simulated µs.
func (r *fabricRep) delaysUs() []float64 {
	var out []float64
	for _, g := range r.gens {
		for _, d := range g.delaysNs {
			out = append(out, float64(d)/1e3)
		}
	}
	return out
}

// summary is the run's determinism surface: per-port counters, totals
// and the delay distribution. It is identical on either engine.
func (r *fabricRep) summary() string {
	var b strings.Builder
	for pid, q := range r.nw.Queues {
		if q == nil {
			continue
		}
		s := &q.Stats
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d\n", pid, s.EnqueuedPkts, s.SentPkts, s.SentBytes, s.DroppedPkts, s.HighWaterBytes)
	}
	d := r.delaysUs()
	slices.Sort(d)
	fmt.Fprintf(&b, "delivered=%d injected=%d drops=%d p50=%g p99=%g max=%g\n",
		r.delivered(), r.injected, r.nw.TotalDrops(), pct(d, 50), pct(d, 99), pct(d, 100))
	return b.String()
}

func digestOf(s string) uint64 {
	var d digester
	d.add(s)
	return d.sum()
}

// runFabricPar is the fabric-par workload: the island engine at
// GOMAXPROCS workers, no transport, placement or observability. Every
// rep simulates the same seeded traffic, so every rep's summary must
// match the first.
func runFabricPar(cfg config) (*report, error) {
	p := defaultFabric(cfg.tiny)
	if cfg.tr != nil {
		return traceFabricPar(cfg, p)
	}
	rep := newReport()
	workers := runtime.GOMAXPROCS(0)
	var setups, rates, rawRates, rss []float64
	var first string
	var delays []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		resetPeakRSS()
		t0 := time.Now()
		r, err := setupFabric(p, cfg.seed, workers, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		clk := readSteal()
		wall, events := r.simulate(nil)
		host := clk.unstolen(wall)
		got := r.delivered()
		rates = append(rates, float64(got)/host)
		rawRates = append(rawRates, float64(got)/wall)
		rss = append(rss, peakRSSMB())
		rep.attempted += r.injected
		rep.failed += r.injected - got
		sum := r.summary()
		if i == 0 {
			first = sum
			delays = r.delaysUs()
			rep.printf("fabric-par: hosts=%d workers=%d islands=%d injected=%d delivered=%d events=%d epochs=%d sim_wall=%.3fs",
				len(r.nw.Hosts), workers, r.nw.PS.Islands(), r.injected, got, events, r.nw.PS.Epochs(), wall)
		} else {
			rep.check(sum == first, "rep %d: simulated summary differs from rep 0", i)
		}
	}
	rep.digest = fmt.Sprintf("%016x", digestOf(first))
	rep.setMedian("setup_s", "s", setups)
	rep.setMedian("ops_per_s", "1/s", rates)
	rep.setMedian("peak_rss_mb", "MB", rss)
	rep.set("op_p50_us", "us", pct(delays, 50))
	rep.set("op_p99_us", "us", pct(delays, 99))
	rep.printf("fabric-par: reps=%d sim_pkts_per_s=%.0f (median of reps, per unstolen host second; %.0f per raw host second) pkt_delay_p50_us=%.3f pkt_delay_p99_us=%.3f (n=%d packets, %d beyond p99; simulated time)",
		len(rates), quartiles(rates)[1], quartiles(rawRates)[1], pct(delays, 50), pct(delays, 99), len(delays), beyond(delays, 99))
	return rep, nil
}
