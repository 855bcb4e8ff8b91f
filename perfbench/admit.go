package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/placement/durable"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/topology"
)

const gbps = 1e9 / 8

// admitDigestOps bounds the decision digest to a prefix of the op
// stream, so it does not depend on how many ops the timed loop fits.
const admitDigestOps = 400

// admitLive is the number of live tenants the loop holds steady: a
// departure follows every admission beyond it. 500 (about 2% of the
// slots) is where silo-bench's placeub run, which removes a tenant on
// every other request, ends after its 2000 requests. It marks no
// regime change: filling the fabric without departures, class A is
// rejected about 45% and class B about 2% of the time at every level
// from 2% to 25% of the slots, and the mean Place time stays at 2–5 ms
// up to 20% (README.md).
func admitLive(tiny bool) int {
	if tiny {
		return 20
	}
	return 500
}

// admitBlock is the number of steps per rack failure.
const admitBlock = 64

// admitSegment is the length in seconds of the timed-loop segments
// whose Place p99s the reported p99 is the median of: a neighbour's
// burst of CPU steal then inflates one segment's tail, not the result.
const admitSegment = 10.0

// admitFabric is the paper's §5 placement fabric: 25 pods × 40 racks ×
// 100 servers × 8 slots (100K hosts), 1:5 oversubscribed.
func admitFabric(tiny bool) topology.Config {
	pods := 25
	if tiny {
		pods = 1
	}
	return topology.Config{
		Pods: pods, RacksPerPod: 40, ServersPerRack: 100, SlotsPerServer: 8,
		LinkBps: 10 * gbps, BufferBytes: 312e3, NICBufferBytes: 62.5e3,
		RackOversub: 5, PodOversub: 5,
	}
}

// tenantGen draws the Table-3 class A/B tenant stream with
// exponentially distributed sizes (mean 49 VMs) and two fault domains.
type tenantGen struct {
	rng  *stats.Rand
	next int
}

func (g *tenantGen) spec() tenant.Spec {
	g.next++
	vms := int(g.rng.Exp(49))
	if vms < 2 {
		vms = 2
	}
	gr := tenant.Guarantee{BandwidthBps: 0.25 * gbps, BurstBytes: 15e3, DelayBound: 1e-3, BurstRateBps: 1 * gbps}
	if g.rng.Float64() >= 0.5 {
		gr = tenant.Guarantee{BandwidthBps: 2 * gbps, BurstBytes: 1.5e3, BurstRateBps: 2 * gbps}
	}
	return tenant.Spec{ID: g.next, Name: "t", VMs: vms, Guarantee: gr, FaultDomains: 2}
}

// admitState is the control-plane churn loop's bookkeeping.
type admitState struct {
	tree *topology.Tree
	d    *durable.Manager
	bare *placement.Manager // traced runs only: the same ops, no WAL

	live      []int
	target    int   // live tenants held steady
	timed     bool  // false during the warm-up fill
	ops       int64 // Place + Remove + Recover calls
	failed    int64
	accepted  int
	rejected  int
	rejectedA int                      // class-A rejections (the tenants with a delay bound)
	rec       placement.RecoveryReport // summed verdict counts
	diverged  int                      // traced: bare decisions that differ

	placeNs, removeNs, recoverNs []float64
	allocsPerPlace               []float64
	digest                       digester
	digestOps                    int
}

// runAdmit is the admit-100k workload: a closed loop with one caller
// issuing Place, Remove and rack-failure Recover calls to a
// durable.Manager on the 100K-host fabric, then a crash-restart check.
func runAdmit(cfg config) (*report, error) {
	rep := newReport()
	tr := cfg.tr
	tcfg := admitFabric(cfg.tiny)
	workers := runtime.GOMAXPROCS(0)
	var reg *obs.Registry
	var mx *durable.Metrics
	if tr != nil {
		reg = obs.NewRegistry()
		mx = durable.NewMetrics(reg)
	}
	// Default options (snapshot every 1024 mutations) except that the
	// WAL is fsynced once per 1024 records rather than per record: the
	// store must live in the checkout, whose virtual disk's fsync jitter
	// would otherwise set the Place median (see README.md).
	opts := durable.Options{Placement: placement.Options{Workers: workers}, SyncEvery: 1024, Metrics: mx}
	root := filepath.Join(cfg.out, fmt.Sprintf("admit-store-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up: topology.New plus durable.Open of an empty store, fifteen
	// times; the last one carries the timed loop.
	st := &admitState{target: admitLive(cfg.tiny)}
	var setups []float64
	var dir string
	for i := 0; i < 15; i++ {
		if st.d != nil {
			st.d.Close()
		}
		st.tree, st.d = nil, nil
		runtime.GC()
		dir = filepath.Join(root, fmt.Sprintf("store%d", i))
		t0 := time.Now()
		var err error
		tr.do("topology", "topology.New", -1, func() { st.tree, err = topology.New(tcfg) })
		if err != nil {
			return nil, err
		}
		tr.do("durable", "durable.Open", -1, func() { st.d, _, err = durable.Open(dir, st.tree, opts) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	if tr != nil {
		tr.do("placement", "placement.NewManager", -1, func() {
			st.bare = placement.NewManager(st.tree, placement.Options{Workers: workers})
		})
	}

	// Warm-up: admit until the live set reaches its steady size, so the
	// timed loop measures steady-state churn, not the fill.
	gen := &tenantGen{rng: stats.NewRand(cfg.seed)}
	pick := stats.NewRand(cfg.seed ^ 0x5eed)
	var i int64
	warm := time.Now()
	for ; len(st.live) < st.target && i < int64(20*st.target); i++ {
		st.step(nil, i, gen, pick)
	}
	warmOps := st.ops
	rep.printf("admit-100k: warm-up %d ops to %d live tenants in %.2f s", warmOps, len(st.live), since(warm))

	if cfg.plant == "wal" {
		st.d.InjectAppendFailures(1 << 30)
	}

	// Timed loop. A traced run records spans on every other block of
	// admitBlock steps, so trace.overhead compares traced to untraced
	// steps of one process, and both halves hold the same share of
	// rack-failure recoveries (one per block).
	st.timed = true
	cpu := readCPU()
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	var untracedNs, tracedNs, untracedOps, tracedOps int64
	var tracedAppends int64 // WAL records the traced steps appended
	// Throughput is the median over one-second windows, so a burst of
	// CPU steal from a neighbour moves a few windows, not the result.
	var windows []float64
	var segEnds []int // st.placeNs index where each p99 segment ends
	winStart, winOps, winSteal := time.Now(), st.ops, readSteal()
	loopStart, loopSteal := winStart, winSteal
	for ; time.Since(loopStart) < deadline; i++ {
		if w := since(winStart); w >= 1 {
			windows = append(windows, float64(st.ops-winOps)/winSteal.unstolen(w))
			winStart, winOps, winSteal = time.Now(), st.ops, readSteal()
		}
		if since(loopStart) >= admitSegment*float64(len(segEnds)+1) {
			segEnds = append(segEnds, len(st.placeNs))
		}
		opTr := tr
		if (i/admitBlock)%2 == 1 {
			opTr = nil
		}
		var a0 int64
		if opTr != nil {
			a0 = mx.Appends.Value()
		}
		t0 := time.Now()
		n0 := st.ops
		st.step(opTr, i, gen, pick)
		dt := time.Since(t0).Nanoseconds()
		if opTr == nil {
			untracedNs += dt
			untracedOps += st.ops - n0
		} else {
			tracedNs += dt
			tracedOps += st.ops - n0
			tracedAppends += mx.Appends.Value() - a0
		}
	}
	loopWall := since(loopStart)
	if w := since(winStart); len(windows) == 0 || w >= 0.5 {
		windows = append(windows, float64(st.ops-winOps)/winSteal.unstolen(w))
	}
	gc := cpu.gcShare()
	segEnds = append(segEnds, len(st.placeNs))

	// Output checks: invariants on the live manager, then a crash
	// (drop without Close) and reopen whose admitted set must match.
	if err := st.d.VerifyInvariants(); err != nil {
		st.failed++
		rep.check(false, "VerifyInvariants after the loop: %v", err)
	}
	want := admittedSet(st.d.Manager)
	var reopened *durable.Manager
	var info *durable.RecoveryInfo
	var err error
	t0 := time.Now()
	tr.do("durable", "durable.Open(reopen)", -1, func() { reopened, info, err = durable.Open(dir, st.tree, opts) })
	replayMs := since(t0) * 1e3
	if err != nil {
		st.failed++
		rep.check(false, "reopen after crash: %v", err)
	} else {
		got := admittedSet(reopened.Manager)
		if !sameAdmitted(want, got) {
			st.failed++
			rep.check(false, "reopened store admits %d tenants, live manager %d (or placements differ)", len(got), len(want))
		}
		if err := reopened.VerifyInvariants(); err != nil {
			st.failed++
			rep.check(false, "VerifyInvariants after reopen: %v", err)
		}
		reopened.Close()
	}
	if st.diverged > 0 {
		rep.check(false, "bare placement replay diverged from the durable manager on %d ops", st.diverged)
	}

	rep.attempted, rep.failed = st.ops, st.failed
	rep.digest = fmt.Sprintf("%016x over first %d ops", st.digest.sum(), st.digestOps)
	rep.printf("admit-100k: hosts=%d slots/host=%d workers=%d closed loop, 1 caller, %.2f s", st.tree.Servers(), tcfg.SlotsPerServer, workers, loopWall)
	rep.printf("admit-100k: timed place=%d remove=%d recover=%d; all %d places accepted=%d rejected=%d (class A %d, class B %d); live=%d",
		len(st.placeNs), len(st.removeNs), len(st.recoverNs), st.accepted+st.rejected, st.accepted, st.rejected, st.rejectedA, st.rejected-st.rejectedA, len(st.live))
	rep.printf("admit-100k: occupancy at loop end %d VMs on %d slots (%.2f%%)", want.vms(), st.tree.Slots(), 100*float64(want.vms())/float64(st.tree.Slots()))
	rep.printf("admit-100k: recovery verdicts relocated=%d degraded=%d evicted=%d", st.rec.Relocated, st.rec.Degraded, st.rec.Evicted)
	if info != nil {
		rep.printf("admit-100k: reopen %s", info.Render())
	}

	if tr == nil {
		placeUs := scaleAll(st.placeNs, 1e-3)
		var segP99 []float64
		seg := ""
		for k, end := range segEnds {
			lo := 0
			if k > 0 {
				lo = segEnds[k-1]
			}
			if end > lo {
				segP99 = append(segP99, pct(placeUs[lo:end], 99))
				seg += fmt.Sprintf(" %.4f (n=%d, %d beyond)", segP99[len(segP99)-1]/1e3, end-lo, beyond(placeUs[lo:end], 99))
			}
		}
		rep.setMedian("setup_s", "s", setups)
		rep.setMedian("ops_per_s", "1/s", windows)
		rep.set("op_p50_us", "us", pct(placeUs, 50))
		rep.setMedian("op_p99_us", "us", segP99)
		rep.printf("admit_p50_ms=%.4f (n=%d Place calls) admit_p99_ms=%.4f (median of %.0f s segment p99s, ms:%s; pooled %.4f, %d beyond)",
			pct(placeUs, 50)/1e3, len(placeUs), quartiles(segP99)[1]/1e3, admitSegment, seg, pct(placeUs, 99)/1e3, beyond(placeUs, 99))
		rep.printf("ctl_ops_per_s=%.1f (median of %d windows of about one second, per unstolen host second; raw %d ops in %.2f s = %.1f/s, steal share %.3f) setup_s=%.4f (median of %d)",
			quartiles(windows)[1], len(windows), st.ops-warmOps, loopWall, float64(st.ops-warmOps)/loopWall, 1-loopSteal.unstolen(loopWall)/loopWall, quartiles(setups)[1], len(setups))
		rep.printf("remove_p50_ms=%.4f recover_p50_ms=%.4f", pct(st.removeNs, 50)/1e6, pct(st.recoverNs, 50)/1e6)
		return rep, nil
	}

	// Per-layer metrics from the spans.
	setLayerTimes(rep, tr)
	durNs := tr.sumNs("durable.Place") + tr.sumNs("durable.Remove") + tr.sumNs("durable.Recover") + tr.sumNs("durable.RestoreServers")
	bareNs := tr.sumNs("placement.Place") + tr.sumNs("placement.Remove") + tr.sumNs("placement.Recover") + tr.sumNs("placement.RestoreServers")
	recovers := len(tr.durations("placement.Recover"))
	rep.check(recovers > 0, "the traced steps recorded no placement.Recover span")
	rep.set("placement.place_us.p50", "us", pct(tr.durations("placement.Place"), 50)/1e3)
	rep.set("placement.place_us.p99", "us", pct(tr.durations("placement.Place"), 99)/1e3)
	rep.set("placement.remove_us.p50", "us", pct(tr.durations("placement.Remove"), 50)/1e3)
	rep.set("placement.recover_ms.p50", "ms", pct(tr.durations("placement.Recover"), 50)/1e6)
	rep.set("placement.allocs_per_place", "count", mean(st.allocsPerPlace))
	rep.set("placement.accepted", "count", float64(st.accepted))
	rep.set("placement.relocated", "count", float64(st.rec.Relocated))
	rep.set("placement.degraded", "count", float64(st.rec.Degraded))
	rep.set("placement.evicted", "count", float64(st.rec.Evicted))
	rep.printf("bases: %d WAL records appended by the traced steps for durable.append_us; %d bare Place calls for placement.allocs_per_place and the place percentiles; %d bare Recover calls for placement.recover_ms.p50",
		tracedAppends, len(st.allocsPerPlace), recovers)
	if tracedAppends > 0 {
		rep.set("durable.append_us", "us", float64(durNs-bareNs)/float64(tracedAppends)/1e3)
	}
	rep.set("durable.records", "count", float64(mx.Appends.Value()))
	rep.set("durable.fsyncs", "count", float64(mx.Fsyncs.Value()))
	rep.set("durable.snapshots", "count", float64(mx.Snapshots.Value()))
	rep.set("durable.retries", "count", float64(mx.Retries.Value()))
	rep.set("durable.replay_ms", "ms", replayMs)
	if info != nil {
		rep.set("durable.replayed_records", "count", float64(info.ReplayedRecords))
	}
	rep.set("go.gc_cpu_share", "ratio", gc)
	if untracedOps > 0 && tracedOps > 0 {
		rep.set("trace.overhead", "ratio", (float64(tracedNs)/float64(tracedOps))/(float64(untracedNs)/float64(untracedOps)))
	}
	share := accountedShare(tr, "op")
	rep.set("trace.accounted_share", "ratio", share)
	rep.check(share >= 0.9, "layer self times account for %.3f of the traced loop, want >= 0.9", share)
	rep.printf("trace: layers account for %.1f%% of the traced steps' op spans (base: %.3f s of traced steps); WAL share %.1f%% of durable op time (base: durable op time %.3f s)",
		100*share, float64(tracedNs)/1e9, 100*float64(durNs-bareNs)/float64(durNs), float64(durNs)/1e9)
	return rep, nil
}

// step issues one Place, a Remove of a random live tenant whenever the
// live set is over its target, and on the last step of every block of
// admitBlock steps a rack failure: Recover, then RestoreServers. Only
// timed steps record latencies.
func (st *admitState) step(tr *tracer, i int64, gen *tenantGen, pick *stats.Rand) {
	root := tr.begin("bench", "op", i)
	defer tr.end(root)

	spec := gen.spec()
	t0 := time.Now()
	id := tr.begin("durable", "durable.Place", i)
	pl, err := st.d.Place(spec)
	tr.end(id)
	st.record(&st.placeNs, t0)
	st.ops++
	switch {
	case err == nil:
		st.accepted++
		st.live = append(st.live, spec.ID)
	case errors.Is(err, placement.ErrRejected):
		st.rejected++
		if spec.Guarantee.DelayBound > 0 {
			st.rejectedA++
		}
	default:
		st.failed++
	}
	if st.bare != nil {
		a0 := heapAllocs()
		id := tr.begin("placement", "placement.Place", i)
		bpl, berr := st.bare.Place(spec)
		tr.end(id)
		st.allocsPerPlace = append(st.allocsPerPlace, float64(heapAllocs()-a0))
		if (err == nil) != (berr == nil) || (err == nil && !slices.Equal(pl.Servers, bpl.Servers)) {
			st.diverged++
		}
	}
	st.note(i, spec.ID, err == nil, pl)

	if len(st.live) > st.target {
		k := pick.Intn(len(st.live))
		victim := st.live[k]
		st.live[k] = st.live[len(st.live)-1]
		st.live = st.live[:len(st.live)-1]
		t0 := time.Now()
		id := tr.begin("durable", "durable.Remove", i)
		err := st.d.Remove(victim)
		tr.end(id)
		st.record(&st.removeNs, t0)
		st.ops++
		if err != nil {
			st.failed++
		}
		if st.bare != nil {
			tr.do("placement", "placement.Remove", i, func() { _ = st.bare.Remove(victim) })
		}
		st.note(i, -victim, err == nil, nil)
	}

	if i%admitBlock == admitBlock-1 && len(st.live) > 0 {
		victim := st.live[pick.Intn(len(st.live))]
		pl, _ := st.d.Placement(victim)
		lo, hi := st.tree.ServersOfRack(st.tree.RackOfServer(pl.Servers[0]))
		servers := make([]int, 0, hi-lo)
		for s := lo; s < hi; s++ {
			servers = append(servers, s)
		}
		t0 := time.Now()
		id := tr.begin("durable", "durable.Recover", i)
		r := st.d.Recover(servers, nil, placement.RecoverOptions{})
		tr.end(id)
		st.record(&st.recoverNs, t0)
		st.ops++
		if r.LogErr != nil {
			st.failed++
		}
		st.rec.Relocated += r.Relocated
		st.rec.Degraded += r.Degraded
		st.rec.Evicted += r.Evicted
		for _, a := range r.Affected {
			if a.Verdict == placement.VerdictEvicted {
				st.live = slices.DeleteFunc(st.live, func(id int) bool { return id == a.ID })
			}
		}
		tr.do("durable", "durable.RestoreServers", i, func() { st.d.RestoreServers(servers...) })
		if err := st.d.CommitHookErr(); err != nil {
			st.failed++
			st.d.ClearCommitHookErr()
		}
		if st.bare != nil {
			var br *placement.RecoveryReport
			tr.do("placement", "placement.Recover", i, func() { br = st.bare.Recover(servers, nil, placement.RecoverOptions{}) })
			tr.do("placement", "placement.RestoreServers", i, func() { st.bare.RestoreServers(servers...) })
			if br.Render() != r.Render() {
				st.diverged++
			}
		}
		if st.digestOps < admitDigestOps {
			st.digest.add(r.Render())
		}
	}
}

// record appends the wall time since t0 to a timed-loop sample.
func (st *admitState) record(sample *[]float64, t0 time.Time) {
	if st.timed {
		*sample = append(*sample, float64(time.Since(t0).Nanoseconds()))
	}
}

// note folds one decision into the digest prefix.
func (st *admitState) note(i int64, id int, ok bool, pl *tenant.Placement) {
	if st.digestOps >= admitDigestOps {
		return
	}
	st.digestOps++
	st.digest.add(fmt.Sprint(i, id, ok))
	if pl != nil {
		st.digest.add(fmt.Sprint(pl.Servers))
	}
}

// admitted maps each admitted tenant to its VMs' servers.
type admitted map[int][]int

// vms counts the admitted VMs, i.e. the occupied slots.
func (a admitted) vms() int {
	n := 0
	for _, s := range a {
		n += len(s)
	}
	return n
}

func admittedSet(m *placement.Manager) admitted {
	out := admitted{}
	for _, id := range m.AdmittedIDs() {
		pl, _ := m.Placement(id)
		out[id] = pl.Servers
	}
	return out
}

func sameAdmitted(a, b admitted) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !slices.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// digester is an FNV-64a hash over a stream of strings.
type digester struct{ h uint64 }

func (d *digester) add(s string) {
	f := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(d.h >> (8 * i))
	}
	f.Write(b[:])
	f.Write([]byte(s))
	d.h = f.Sum64()
}

func (d *digester) sum() uint64 { return d.h }

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func scaleAll(vals []float64, f float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// beyond counts the samples strictly above the p-th percentile.
func beyond(vals []float64, p float64) int {
	cut := pct(vals, p)
	n := 0
	for _, v := range vals {
		if v > cut {
			n++
		}
	}
	return n
}
