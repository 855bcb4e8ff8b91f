package placement

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netcal"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// Common sentinel errors.
var (
	// ErrRejected reports that admission control found no valid
	// placement for a tenant request.
	ErrRejected = errors.New("placement: request rejected")
	// ErrUnknownTenant reports a Remove of a tenant that is not
	// admitted.
	ErrUnknownTenant = errors.New("placement: unknown tenant")
)

// Algorithm is the common interface of Silo and the baseline placers.
type Algorithm interface {
	// Place admits the tenant and returns where its VMs landed, or
	// ErrRejected (wrapped) if no valid placement exists.
	Place(spec tenant.Spec) (*tenant.Placement, error)
	// Remove releases an admitted tenant's resources.
	Remove(id int) error
	// Name identifies the algorithm in experiment output.
	Name() string
}

// Options tunes the Silo manager; the zero value is the paper's
// configuration.
type Options struct {
	// MTUBytes seeds packet-scale bursts in arrival curves; defaults
	// to 1500.
	MTUBytes float64
	// PlainAggregation disables the hose-model tightening of
	// aggregated arrival curves (ablation; paper §4.2.2 derives the
	// tighter form).
	PlainAggregation bool
	// DelayCheckUsesBound makes constraint 2 use current queue bounds
	// instead of queue capacities (ablation; the paper argues
	// capacities keep admission composable under churn, §4.2.3).
	DelayCheckUsesBound bool
	// Workers caps the goroutines the scope search fans out across
	// independent rack/pod candidates. 0 means runtime.GOMAXPROCS(0);
	// 1 restores the fully serial search. Decisions are identical at
	// any setting: candidate scopes are evaluated without side effects
	// and the lowest-index success wins, matching serial first-fit
	// order.
	Workers int
	// NoFastPath disables the closed-form bound evaluation, the
	// memoized per-(k, span) contributions, the port-headroom scope
	// skipping, the pristine-scope reuse and the parallel search,
	// restoring the reference curve-materializing admission path. It
	// exists so tests can replay identical request sequences through
	// both paths and prove decision equivalence. It forces Workers to
	// 1.
	NoFastPath bool
}

// Manager is Silo's placement manager (admission control + VM
// placement).
type Manager struct {
	tree    *topology.Tree
	opts    Options
	workers int

	// ix caches free-slot sums per server/rack/pod/datacenter so the
	// scope search skips exhausted scopes in O(1) (placement on 100 K
	// hosts is dominated by scanning otherwise).
	ix *slotIndex
	// freeCPU and freeMem are per-server non-network capacities (nil
	// when the topology declares none).
	freeCPU []float64
	freeMem []float64

	// ports holds the incrementally maintained aggregate arrival-curve
	// state (scalar rate/burst/peak/seed sums) per directed port;
	// Place adds a tenant's contributions, Remove subtracts them, and
	// admission never resums the admitted set.
	ports []portState
	// portRate and portCap mirror each port's line rate and queue
	// capacity into flat arrays so the admission hot path indexes them
	// without touching topology Port structs.
	portRate []float64
	portCap  []float64
	// bounds caches each port's current queue bound, updated on every
	// Place/Remove that touches the port (closed form, O(1) per port).
	// Unused when NoFastPath is set.
	bounds []float64
	// head summarizes per-rack/per-pod port rate headroom for sound
	// scope skipping; revalidated lazily via dirty marks.
	head *headroomIndex

	// upLo/upHi and downLo/downHi are the port-ID ranges of the NIC-up
	// and ToR-down families, for mapping a touched port back to its
	// rack.
	upLo, upHi     int
	downLo, downHi int

	// memo is the fast path's per-request table, rebuilt in place by
	// each admission. scratch holds one set of search buffers per
	// scope-search worker; scratch[0] also serves the serial search.
	memo    reqMemo
	scratch []*searchScratch

	admitted map[int]*admittedTenant

	acceptedCount int
	rejectedCount int

	// mx is the optional telemetry bundle (EnableMetrics); nil costs
	// one branch per Place/Remove.
	mx *Metrics

	// journal is the optional admission decision log (EnableJournal);
	// nil costs one branch on each accept/reject tail.
	journal *journal

	// hook is the optional write-ahead commit hook (SetCommitHook):
	// called with every mutation before it is applied; an error aborts
	// the mutation. hookErr holds the first failure from a void mutator
	// (FailServers/RestoreServers) that cannot return it.
	hook    func(*Mutation) error
	hookErr error
}

type admittedTenant struct {
	placement *tenant.Placement
	// contribs maps port ID -> this tenant's contribution, retained so
	// Remove can subtract exactly what Place added.
	contribs map[int]contribution
}

// NewManager returns a Silo placement manager over the given
// datacenter.
func NewManager(tree *topology.Tree, opts Options) *Manager {
	if opts.MTUBytes <= 0 {
		opts.MTUBytes = 1500
	}
	m := &Manager{
		tree:     tree,
		opts:     opts,
		ix:       newSlotIndex(tree),
		ports:    make([]portState, tree.NumPorts()),
		portRate: make([]float64, tree.NumPorts()),
		portCap:  make([]float64, tree.NumPorts()),
		bounds:   make([]float64, tree.NumPorts()),
		head:     newHeadroomIndex(tree),
		admitted: make(map[int]*admittedTenant),
	}
	m.workers = opts.Workers
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	if opts.NoFastPath {
		m.workers = 1
	}
	m.scratch = make([]*searchScratch, m.workers)
	for w := range m.scratch {
		m.scratch[w] = &searchScratch{}
	}
	for pid := 0; pid < tree.NumPorts(); pid++ {
		p := tree.Port(pid)
		m.portRate[pid] = p.RateBps
		m.portCap[pid] = p.QueueCapacity()
	}
	m.upLo, m.upHi = tree.ServerUpPortRange()
	m.downLo, m.downHi = tree.RackDownPortRange()
	if c := tree.Config().CPUPerServer; c > 0 {
		m.freeCPU = make([]float64, tree.Servers())
		for i := range m.freeCPU {
			m.freeCPU[i] = c
		}
	}
	if mem := tree.Config().MemoryPerServer; mem > 0 {
		m.freeMem = make([]float64, tree.Servers())
		for i := range m.freeMem {
			m.freeMem[i] = mem
		}
	}
	return m
}

// takeSlot and freeSlot keep the cached sums consistent, including
// non-network resources.
func (m *Manager) takeSlot(server int, spec *tenant.Spec) {
	m.ix.take(server)
	if m.freeCPU != nil {
		m.freeCPU[server] -= spec.CPUPerVM
	}
	if m.freeMem != nil {
		m.freeMem[server] -= spec.MemoryPerVM
	}
}

// freeSlot returns a VM's slot, CPU and memory. When the server's last
// VM leaves, CPU and memory reset to the configured capacity rather
// than keep the float residue of the adds and subtracts: a vacant
// server must offer exactly what an untouched one does (and a pristine
// rack must answer like any other, see rackPristine). Residue never
// lifts them above capacity either, so no server can take more VMs
// than a vacant one (structuralReject relies on it).
func (m *Manager) freeSlot(server int, spec *tenant.Spec) {
	m.ix.free(server)
	vacant := m.ix.vacant(server)
	if m.freeCPU != nil {
		c := m.tree.Config().CPUPerServer
		m.freeCPU[server] = min(m.freeCPU[server]+spec.CPUPerVM, c)
		if vacant {
			m.freeCPU[server] = c
		}
	}
	if m.freeMem != nil {
		c := m.tree.Config().MemoryPerServer
		m.freeMem[server] = min(m.freeMem[server]+spec.MemoryPerVM, c)
		if vacant {
			m.freeMem[server] = c
		}
	}
}

// maxVMsByResources caps a server's VM count by slots, CPU and memory.
func (m *Manager) maxVMsByResources(spec *tenant.Spec, server int) int {
	var cpu, mem float64
	if m.freeCPU != nil {
		cpu = m.freeCPU[server]
	}
	if m.freeMem != nil {
		mem = m.freeMem[server]
	}
	return m.resourceCap(spec, m.ix.freeSlots[server], cpu, mem)
}

// resourceCap caps a VM count of slots by the given free CPU and
// memory (each ignored when the topology declares none).
func (m *Manager) resourceCap(spec *tenant.Spec, slots int, cpu, mem float64) int {
	k := slots
	if m.freeCPU != nil && spec.CPUPerVM > 0 {
		if byCPU := int(cpu / spec.CPUPerVM); byCPU < k {
			k = byCPU
		}
	}
	if m.freeMem != nil && spec.MemoryPerVM > 0 {
		if byMem := int(mem / spec.MemoryPerVM); byMem < k {
			k = byMem
		}
	}
	if k < 0 {
		k = 0
	}
	return k
}

// Name implements Algorithm.
func (m *Manager) Name() string { return "silo" }

// Accepted and Rejected report cumulative admission counters.
func (m *Manager) Accepted() int { return m.acceptedCount }

// Rejected reports the number of rejected requests.
func (m *Manager) Rejected() int { return m.rejectedCount }

// Workers reports the scope-search parallelism in effect.
func (m *Manager) Workers() int { return m.workers }

// FreeSlots reports the number of free VM slots on server s.
func (m *Manager) FreeSlots(s int) int { return m.ix.freeSlots[s] }

// QueueBound reports the current worst-case queuing delay (seconds) at
// the given directed port.
func (m *Manager) QueueBound(portID int) float64 {
	if m.opts.NoFastPath {
		return queueBound(m.tree.Port(portID), m.ports[portID], contribution{})
	}
	return m.bounds[portID]
}

// Placement returns the admitted placement for a tenant ID, if any.
func (m *Manager) Placement(id int) (*tenant.Placement, bool) {
	at, ok := m.admitted[id]
	if !ok {
		return nil, false
	}
	return at.placement, true
}

// portTouched refreshes the per-port derived caches after the port's
// aggregate state changed: the cached queue bound, and the dirty mark
// of the rack whose headroom summary the port feeds.
func (m *Manager) portTouched(pid int) {
	if m.opts.NoFastPath {
		return
	}
	m.bounds[pid] = queueBoundFast(m.portRate[pid], &m.ports[pid], contribution{})
	switch {
	case pid >= m.upLo && pid < m.upHi:
		m.head.markRack(m.tree.RackOfServer(pid - m.upLo))
	case pid >= m.downLo && pid < m.downHi:
		m.head.markRack(m.tree.RackOfServer(pid - m.downLo))
	}
}

// Place implements Algorithm. When metrics are attached it also times
// the request and classifies its outcome; without them the wrapper is
// one branch (no clock reads).
func (m *Manager) Place(spec tenant.Spec) (*tenant.Placement, error) {
	if m.mx == nil {
		pl, _, err := m.place(spec)
		return pl, err
	}
	start := time.Now()
	pl, structural, err := m.place(spec)
	m.mx.notePlace(time.Since(start), err, structural, m.opts.NoFastPath, spec.Guarantee.DelayBound > 0)
	return pl, err
}

// place runs admission control and placement. It proceeds scope by
// scope — single server, then each rack, each pod, then the whole
// datacenter — and within a scope first packs greedily and then, if
// the packed layout violates a queuing constraint, retries with an
// even spread (paper Figure 5: 3/3/3 beats 4/4/1). The bool reports a
// rejection decided by structuralReject, before any scope search.
func (m *Manager) place(spec tenant.Spec) (*tenant.Placement, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if _, dup := m.admitted[spec.ID]; dup {
		return nil, false, fmt.Errorf("placement: tenant %d already admitted", spec.ID)
	}
	if spec.Class == tenant.ClassBestEffort {
		// Best-effort tenants bypass network admission (paper §4.4);
		// they ride the low priority class and only consume slots.
		pl, err := m.placeBestEffort(spec)
		return pl, false, err
	}

	servers, structural := m.findPlacement(&spec)
	if servers == nil {
		if err := m.logMutation(&Mutation{Op: MutReject, TenantID: spec.ID}); err != nil {
			return nil, false, err
		}
		m.rejectedCount++
		if m.journal != nil {
			m.journal.record(m.explainReject(spec))
		}
		return nil, structural, fmt.Errorf("%w: tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	if err := m.logMutation(&Mutation{Op: MutPlace, Spec: spec, Servers: servers}); err != nil {
		return nil, false, err
	}
	pl := &tenant.Placement{Spec: spec, Servers: servers}
	contribs := m.contributions(&spec, servers)
	if m.journal != nil {
		// Before the port-state mutation below, so BoundBeforeSec sees
		// the pre-admission aggregates.
		m.journal.record(m.recordAccept(spec, servers, contribs))
	}
	for pid, c := range contribs {
		m.ports[pid].add(c)
		m.portTouched(pid)
	}
	for _, s := range servers {
		m.takeSlot(s, &spec)
	}
	m.admitted[spec.ID] = &admittedTenant{placement: pl, contribs: contribs}
	m.acceptedCount++
	return pl, false, nil
}

// Remove implements Algorithm.
func (m *Manager) Remove(id int) error {
	at, ok := m.admitted[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownTenant, id)
	}
	if err := m.logMutation(&Mutation{Op: MutRemove, TenantID: id}); err != nil {
		return err
	}
	m.mx.noteRemove()
	m.detach(at)
	return nil
}

// detach releases an admitted tenant's port contributions and slots —
// the shared core of Remove and the recovery path's evacuation step.
func (m *Manager) detach(at *admittedTenant) {
	for pid, c := range at.contribs {
		m.ports[pid].remove(c)
		m.portTouched(pid)
	}
	for _, s := range at.placement.Servers {
		m.freeSlot(s, &at.placement.Spec)
	}
	delete(m.admitted, at.placement.Spec.ID)
}

func (m *Manager) placeBestEffort(spec tenant.Spec) (*tenant.Placement, error) {
	eff := m.ix.freeSlots
	if m.freeCPU != nil || m.freeMem != nil {
		eff = make([]int, len(m.ix.freeSlots))
		for s := range eff {
			eff[s] = m.maxVMsByResources(&spec, s)
		}
	}
	servers := packGreedy(m.tree, eff, m.ix, spec.VMs, spec.FaultDomains)
	if servers == nil {
		if err := m.logMutation(&Mutation{Op: MutReject, TenantID: spec.ID}); err != nil {
			return nil, err
		}
		m.rejectedCount++
		if m.journal != nil {
			m.journal.record(&Decision{
				TenantID: spec.ID, Name: spec.Name, VMs: spec.VMs, LimitingPort: -1,
				Reason: fmt.Sprintf("best-effort: no slot-feasible packing for %d VMs", spec.VMs),
			})
		}
		return nil, fmt.Errorf("%w: best-effort tenant %q (%d VMs)", ErrRejected, spec.Name, spec.VMs)
	}
	if err := m.logMutation(&Mutation{Op: MutPlace, Spec: spec, Servers: servers}); err != nil {
		return nil, err
	}
	pl := &tenant.Placement{Spec: spec, Servers: servers}
	if m.journal != nil {
		lay := newLayout(m.tree, servers)
		m.journal.record(&Decision{
			TenantID: spec.ID, Name: spec.Name, VMs: spec.VMs, Accepted: true,
			Servers: append([]int(nil), lay.servers...), Span: spanName(lay.span()),
			LimitingPort: -1,
		})
	}
	for _, s := range servers {
		m.takeSlot(s, &spec)
	}
	m.admitted[spec.ID] = &admittedTenant{placement: pl, contribs: map[int]contribution{}}
	m.acceptedCount++
	return pl, nil
}

// reqMemo caches, for the duration of one admission request, the
// contribution a cut of k local VMs makes at a server NIC-up port and
// the contribution of the n−k remote VMs at the ToR down port, per
// candidate k and scope span. Ports within a family share line rates,
// so these depend only on (k, span) — the seed recomputed them (and
// rebuilt their curves) for every server probed. Read-only during the
// scope search, so safe to share across search workers.
type reqMemo struct {
	maxK  int
	upC   []contribution
	downC [3][]contribution
	// emptyOK[span][k] precomputes serverPortsOK for a server whose
	// NIC-up and ToR-down ports carry no admitted traffic yet — the
	// common case on a lightly loaded tree, where the per-server probe
	// collapses to an array lookup. Port rates and capacities are
	// uniform within each family, so one verdict covers every such
	// server.
	emptyOK [3][]bool
	// limit is the most VMs of the tenant any one server can take: a
	// vacant server's slot, CPU and memory cap, at most n.
	limit int
	// vacantCap[span] is maxVMsOnServer for any server of a pristine
	// rack: no traffic on its ports and its full slots, CPU and memory
	// free. When it is 0, packs step over pristine racks whole.
	vacantCap [3]int
}

// newReqMemo rebuilds the manager's memo for spec and returns it.
func (m *Manager) newReqMemo(spec *tenant.Spec) *reqMemo {
	n := spec.VMs
	cfg := m.tree.Config()
	maxK := min(cfg.SlotsPerServer, n)
	g := spec.Guarantee
	link := cfg.LinkBps
	memo := &m.memo
	memo.maxK = maxK
	// The tables are reused across requests; every entry up to maxK is
	// overwritten below.
	memo.upC = slices.Grow(memo.upC[:0], maxK+1)[:maxK+1]
	for span := scopeRack; span <= scopeDC; span++ {
		memo.downC[span] = slices.Grow(memo.downC[span][:0], maxK+1)[:maxK+1]
		memo.emptyOK[span] = slices.Grow(memo.emptyOK[span][:0], maxK+1)[:maxK+1]
	}
	for k := 0; k <= maxK; k++ {
		memo.upC[k] = m.cutContribution(k, n, g, link, 0)
		for span := scopeRack; span <= scopeDC; span++ {
			memo.downC[span][k] = m.cutContribution(n-k, n, g, math.Inf(1),
				m.inflation(span, topology.LevelRack, topology.Down))
		}
	}
	upID := m.tree.ServerUpPortID(0)
	downID := m.tree.RackDownPortID(0)
	var empty portState
	for k := 0; k <= maxK; k++ {
		okUp := memo.upC[k].isZero() ||
			queueBoundFast(m.portRate[upID], &empty, memo.upC[k]) <= m.portCap[upID]+1e-12
		for span := scopeRack; span <= scopeDC; span++ {
			c := memo.downC[span][k]
			memo.emptyOK[span][k] = okUp && (c.isZero() ||
				queueBoundFast(m.portRate[downID], &empty, c) <= m.portCap[downID]+1e-12)
		}
	}
	memo.limit = min(m.resourceCap(spec, cfg.SlotsPerServer, cfg.CPUPerServer, cfg.MemoryPerServer), n)
	for span := scopeRack; span <= scopeDC; span++ {
		memo.vacantCap[span] = 0
		for k := memo.limit; k >= 1; k-- {
			if memo.emptyOK[span][k] {
				memo.vacantCap[span] = k
				break
			}
		}
	}
	return memo
}

// certSlack pads certOverrun: a port counts as overrun only when its
// bound on an empty port passes the capacity by more than this share of
// it, so float rounding in the closed-form bound can never turn a
// certified overrun into a pass on an occupied port.
const certSlack = 1e-9

// certOverrun reports whether contribution c overruns port pid's queue
// capacity on every state of the port, and with any larger ingress cap
// or inflation, judged from the empty port alone. That holds when the
// closed form is the exact bound of c's curve, which every aggregate
// containing a larger curve can only exceed. It is not exact when c's
// peak does not exceed its rate: the closed form then bounds c as a
// plain token bucket, which overstates it, and added traffic can lower
// the result. Such a c counts only when its rate alone is more than the
// port can serve.
func (m *Manager) certOverrun(pid int, c contribution) bool {
	if c.Peak <= c.Rate {
		return c.Rate > m.portRate[pid]
	}
	var empty portState
	return queueBoundFast(m.portRate[pid], &empty, c) > m.portCap[pid]*(1+certSlack)+1e-12
}

// structuralReject certifies, from the memo alone, that no layout at any
// scope can host the tenant on any state of the tree, so findPlacement
// may reject it without a scope search. It needs limit < n: then every
// layout puts 1 ≤ k ≤ limit VMs on some server, since no server takes
// more than a vacant one (occupied servers have fewer free slots, and
// their free CPU and memory never exceed capacity). At that server
// layoutValid checks the NIC-up contribution, which is exactly
// memo.upC[k], and a ToR-down contribution that dominates one of two
// floors, because cutContribution only grows with the ingress cap and
// the inflation:
//   - rack-local layouts feed the ToR from at least ceil((n−k)/limit)
//     other servers of the rack, at rack-span inflation;
//   - layouts beyond the rack feed it through the pod downlink, at
//     pod-span inflation or more.
//
// So when for every k the NIC-up check, or the ToR-down check at both
// floors, fails on an empty port by certOverrun, layoutValid fails for
// every layout.
func (m *Manager) structuralReject(spec *tenant.Spec, memo *reqMemo) bool {
	n, limit := spec.VMs, memo.limit
	if limit >= n {
		return false
	}
	g := spec.Guarantee
	link := m.tree.Config().LinkBps
	podDownRate := m.tree.PodDownPort(0).RateBps
	rackInfl := m.inflation(scopeRack, topology.LevelRack, topology.Down)
	podInfl := m.inflation(scopePod, topology.LevelRack, topology.Down)
	upID := m.tree.ServerUpPortID(0)
	downID := m.tree.RackDownPortID(0)
	for k := 1; k <= limit; k++ {
		if m.certOverrun(upID, memo.upC[k]) {
			continue
		}
		others := (n - k + limit - 1) / limit
		if m.certOverrun(downID, m.cutContribution(n-k, n, g, float64(others)*link, rackInfl)) &&
			m.certOverrun(downID, m.cutContribution(n-k, n, g, podDownRate, podInfl)) {
			continue
		}
		return false
	}
	return true
}

// searchScratch is one scope-search worker's reusable buffers: the
// per-VM server list a pack or spread builds, and its layout.
type searchScratch struct {
	servers []int
	lay     layout
}

// findPlacement searches scopes in height order and returns the chosen
// server per VM, or nil; the bool reports a nil decided by
// structuralReject before the scope search.
func (m *Manager) findPlacement(spec *tenant.Spec) ([]int, bool) {
	g := spec.Guarantee
	// Constraint 2 pre-check per scope height: the worst path inside a
	// scope has a fixed queue-capacity sum; scopes whose sum exceeds d
	// cannot host the tenant (unless it fits a single server, where no
	// network port is crossed).
	delayBudget := g.DelayBound
	if delayBudget <= 0 {
		delayBudget = math.Inf(1)
	}

	// Scope 0: single server (no network traffic, no constraints
	// beyond slots and fault domains). Racks without enough free slots
	// cannot contain a server with enough either.
	if spec.FaultDomains <= 1 && spec.VMs <= m.ix.serverSlots {
		for r := 0; r < m.tree.Racks(); r++ {
			if m.ix.freeByRack[r] < spec.VMs {
				continue
			}
			lo, hi := m.tree.ServersOfRack(r)
			for s := lo; s < hi; s++ {
				if m.maxVMsByResources(spec, s) >= spec.VMs {
					servers := make([]int, spec.VMs)
					for i := range servers {
						servers[i] = s
					}
					return servers, false
				}
			}
		}
	}

	var memo *reqMemo
	if !m.opts.NoFastPath {
		memo = m.newReqMemo(spec)
		// The reference path keeps the full search that proves this.
		if m.structuralReject(spec, memo) {
			return nil, true
		}
	}
	// Port-headroom skipping is sound only for tenants that put
	// nonzero traffic on the network (n >= 2: every hosting server
	// then carries at least B of arrival rate on its NIC-up and
	// ToR-down ports, see headroomIndex).
	useHeadroom := !m.opts.NoFastPath && spec.VMs >= 2
	if useHeadroom {
		m.head.refresh(m)
	}
	bw := g.BandwidthBps

	// Scope 1: single rack.
	if m.scopeDelayOK(delayBudget, scopeRack) {
		servers := m.searchFirstFit(memo, m.tree.Racks(), m.ix.rackPristine, func(r int, sc *searchScratch) []int {
			free := m.ix.freeByRack[r]
			if free < spec.VMs {
				return nil
			}
			if useHeadroom && bw > m.head.rackMax[r]+headroomSlack {
				return nil
			}
			lo, hi := m.tree.ServersOfRack(r)
			return m.tryScope(spec, memo, sc, free, lo, hi, scopeRack)
		})
		if servers != nil {
			return servers, false
		}
	}
	// Scope 2: single pod.
	if m.scopeDelayOK(delayBudget, scopePod) {
		servers := m.searchFirstFit(memo, m.tree.Pods(), m.ix.podPristine, func(p int, sc *searchScratch) []int {
			free := m.ix.freeByPod[p]
			if free < spec.VMs {
				return nil
			}
			if useHeadroom && bw > m.head.podMax[p]+headroomSlack {
				return nil
			}
			rlo, rhi := m.tree.RacksOfPod(p)
			slo, _ := m.tree.ServersOfRack(rlo)
			_, shi := m.tree.ServersOfRack(rhi - 1)
			return m.tryScope(spec, memo, sc, free, slo, shi, scopePod)
		})
		if servers != nil {
			return servers, false
		}
	}
	// Scope 3: whole datacenter.
	if m.scopeDelayOK(delayBudget, scopeDC) {
		if useHeadroom && bw > m.head.dcMax+headroomSlack {
			return nil, false
		}
		return m.tryScope(spec, memo, m.scratch[0], m.ix.totalFree, 0, m.tree.Servers(), scopeDC), false
	}
	return nil, false
}

// searchFirstFit returns the lowest-index success of eval over count
// candidate scopes, deciding the pristine ones once. Every pristine
// candidate gives the same answer shifted by its offset, so on the fast
// path (memo != nil) the first pristine candidate p0 is evaluated
// alone: if it succeeds only the candidates before it are searched (p0
// wins if none of them does); if it fails every pristine candidate is
// dismissed in O(1). NoFastPath evaluates each candidate, which is
// what proves the shortcut.
func (m *Manager) searchFirstFit(memo *reqMemo, count int, pristine func(int) bool, eval func(int, *searchScratch) []int) []int {
	p0 := -1
	if memo != nil {
		for i := 0; i < count; i++ {
			if pristine(i) {
				p0 = i
				break
			}
		}
	}
	if p0 < 0 {
		return m.searchScopes(count, eval)
	}
	if out := eval(p0, m.scratch[0]); out != nil {
		if early := m.searchScopes(p0, eval); early != nil {
			return early
		}
		return out
	}
	return m.searchScopes(count, func(i int, sc *searchScratch) []int {
		if pristine(i) {
			return nil
		}
		return eval(i, sc)
	})
}

// searchScopes evaluates eval(0..count-1) — each a side-effect-free
// attempt to place within one candidate scope — and returns the result
// of the lowest-index success, preserving serial first-fit semantics.
// With more than one worker, candidates are claimed in index order by
// a pool of goroutines, each with its own scratch; a worker stops once
// every index below the best known success has been claimed. All
// shared manager state is read-only for the duration of the search.
func (m *Manager) searchScopes(count int, eval func(int, *searchScratch) []int) []int {
	workers := min(m.workers, count)
	if workers <= 1 {
		for i := 0; i < count; i++ {
			if out := eval(i, m.scratch[0]); out != nil {
				return out
			}
		}
		return nil
	}
	var (
		next, best  atomic.Int64
		mu          sync.Mutex
		bestServers []int
		wg          sync.WaitGroup
	)
	best.Store(int64(count))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sc *searchScratch) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(count) || i >= best.Load() {
					return
				}
				out := eval(int(i), sc)
				if out == nil {
					continue
				}
				mu.Lock()
				if i < best.Load() {
					best.Store(i)
					bestServers = out
				}
				mu.Unlock()
			}
		}(m.scratch[w])
	}
	wg.Wait()
	if best.Load() == int64(count) {
		return nil
	}
	return bestServers
}

type scopeHeight int

const (
	scopeRack scopeHeight = iota
	scopePod
	scopeDC
)

// scopeDelayOK checks constraint 2 for the worst path within a scope.
// Queue capacities are uniform per level in the tree, so representative
// ports suffice.
func (m *Manager) scopeDelayOK(budget float64, h scopeHeight) bool {
	if math.IsInf(budget, 1) {
		return true
	}
	t := m.tree
	nic := t.ServerUpPort(0).QueueCapacity()
	rackDown := t.RackDownPort(0).QueueCapacity()
	rackUp := t.RackUpPort(0).QueueCapacity()
	podDown := t.PodDownPort(0).QueueCapacity()
	podUp := t.PodUpPort(0).QueueCapacity()
	coreDown := t.CoreDownPort(0).QueueCapacity()
	var worst float64
	switch h {
	case scopeRack:
		worst = nic + rackDown
	case scopePod:
		worst = nic + rackUp + podDown + rackDown
	default:
		worst = nic + rackUp + podUp + coreDown + podDown + rackDown
	}
	return worst <= budget+1e-15
}

// tryScope attempts to place all VMs within servers [lo, hi). free is
// the caller's (index-maintained) free-slot sum over that range.
// Pass 1 packs greedily (per-server count capped by the server-local
// queuing constraints); pass 2 spreads evenly. Each pass's layout is
// verified against the full constraint set before being accepted. The
// passes build in sc; an accepted list is returned as a fresh copy.
func (m *Manager) tryScope(spec *tenant.Spec, memo *reqMemo, sc *searchScratch, free, lo, hi int, span scopeHeight) []int {
	if free < spec.VMs {
		return nil
	}

	// Pass 1: greedy pack, honoring the per-server VM cap derived from
	// the server's own up/down port constraints (paper §4.2.3).
	if servers := m.packWithCaps(spec, memo, sc, lo, hi, span); servers != nil {
		if sc.lay.build(m.tree, servers); m.layoutValid(spec, &sc.lay) {
			return slices.Clone(servers)
		}
	}
	// Pass 2: spread evenly across candidate servers.
	if servers := m.spreadEven(spec, sc, lo, hi); servers != nil {
		if sc.lay.build(m.tree, servers); m.layoutValid(spec, &sc.lay) {
			return slices.Clone(servers)
		}
	}
	return nil
}

// maxVMsOnServer returns the largest VM count on server s compatible
// with the queuing constraints at s's NIC port and its ToR down port,
// assuming the remaining VMs sit elsewhere (worst case for both
// ports). span is the scope being attempted, which sets the burst
// inflation the rest of the tenant's traffic accrues en route.
func (m *Manager) maxVMsOnServer(spec *tenant.Spec, memo *reqMemo, s int, span scopeHeight) int {
	limit := min(m.maxVMsByResources(spec, s), spec.VMs)
	if memo == nil {
		for k := limit; k >= 1; k-- {
			if m.serverPortsOKRef(spec, s, k, span) {
				return k
			}
		}
		return 0
	}
	up := m.tree.ServerUpPortID(s)
	down := m.tree.RackDownPortID(s)
	upSt, downSt := &m.ports[up], &m.ports[down]
	if upSt.tenants == 0 && downSt.tenants == 0 {
		oks := memo.emptyOK[span]
		for k := limit; k >= 1; k-- {
			if oks[k] {
				return k
			}
		}
		return 0
	}
	upRate, upCap := m.portRate[up], m.portCap[up]
	downRate, downCap := m.portRate[down], m.portCap[down]
	downC := memo.downC[span]
	for k := limit; k >= 1; k-- {
		if c := memo.upC[k]; !c.isZero() {
			if queueBoundFast(upRate, upSt, c) > upCap+1e-12 {
				continue
			}
		}
		if c := downC[k]; !c.isZero() {
			if queueBoundFast(downRate, downSt, c) > downCap+1e-12 {
				continue
			}
		}
		return k
	}
	return 0
}

// serverPortsOKRef is the reference (seed) implementation: it rebuilds
// the cut contributions and materializes curves on every probe.
func (m *Manager) serverPortsOKRef(spec *tenant.Spec, s, k int, span scopeHeight) bool {
	n := spec.VMs
	g := spec.Guarantee
	up := m.tree.ServerUpPort(s)
	upC := m.cutContribution(k, n, g, up.RateBps, 0)
	if !m.portOK(up, upC) {
		return false
	}
	down := m.tree.RackDownPort(s)
	// Ingress to the ToR from the rest of the tenant: worst case the
	// other n−k VMs are spread across many links, so peak is capped
	// only by their combined burst rate.
	inflation := m.inflation(span, topology.LevelRack, topology.Down)
	downC := m.cutContribution(n-k, n, g, math.Inf(1), inflation)
	return m.portOK(down, downC)
}

// packWithCaps fills candidate servers [lo, hi), which span whole
// racks, in order, each up to its cap, into sc.servers. On the fast
// path, when a pristine rack's servers would all be capped at 0
// (memo.vacantCap), the rack is stepped over whole, so a
// datacenter-wide pack costs O(occupied racks).
func (m *Manager) packWithCaps(spec *tenant.Spec, memo *reqMemo, sc *searchScratch, lo, hi int, span scopeHeight) []int {
	servers := sc.servers[:0]
	left := spec.VMs
	distinct := 0
	maxPer := maxPerServer(spec.VMs, spec.FaultDomains)
	skipPristine := memo != nil && memo.vacantCap[span] == 0
	for r := m.tree.RackOfServer(lo); r <= m.tree.RackOfServer(hi-1) && left > 0; r++ {
		if skipPristine && m.ix.rackPristine(r) {
			continue
		}
		rlo, rhi := m.tree.ServersOfRack(r)
		for s := rlo; s < rhi && left > 0; s++ {
			k := min(m.maxVMsOnServer(spec, memo, s, span), maxPer, left)
			if k > 0 {
				distinct++
			}
			for j := 0; j < k; j++ {
				servers = append(servers, s)
			}
			left -= k
		}
	}
	sc.servers = servers
	if left > 0 || distinct < spec.FaultDomains {
		return nil
	}
	return servers
}

// spreadEven deals VMs round-robin over servers [lo, hi), into
// sc.servers: round p takes, in index order, every server whose
// resource cap exceeds p, until all VMs are dealt. It fails when a
// round makes no progress (the range is out of capacity).
func (m *Manager) spreadEven(spec *tenant.Spec, sc *searchScratch, lo, hi int) []int {
	servers := sc.servers[:0]
	distinct := 0
	for p := 0; len(servers) < spec.VMs; p++ {
		dealt := len(servers)
		for s := lo; s < hi && len(servers) < spec.VMs; s++ {
			if m.maxVMsByResources(spec, s) > p {
				servers = append(servers, s)
			}
		}
		if len(servers) == dealt {
			break
		}
		if p == 0 {
			distinct = len(servers)
		}
	}
	sc.servers = servers
	if len(servers) < spec.VMs || distinct < spec.FaultDomains {
		return nil
	}
	return servers
}

// layoutValid runs the full constraint check for a candidate layout:
// every port the tenant touches must keep queue bound <= queue
// capacity with the tenant's contribution added, and every intra-
// tenant path must satisfy the delay constraint.
func (m *Manager) layoutValid(spec *tenant.Spec, lay *layout) bool {
	ok := m.forEachContribution(spec, lay, func(pid int, c contribution) bool {
		return m.portBoundWith(pid, c) <= m.portCap[pid]+1e-12
	})
	if !ok {
		return false
	}
	// Constraint 2 over actual server pairs.
	if d := spec.Guarantee.DelayBound; d > 0 {
		distinct := lay.servers
		for i := 0; i < len(distinct); i++ {
			for j := i + 1; j < len(distinct); j++ {
				if m.pathDelayMetric(distinct[i], distinct[j]) > d+1e-15 {
					return false
				}
			}
		}
	}
	return true
}

// portBoundWith returns the port's queue bound with the extra
// contribution added, via the closed form or the reference curves.
func (m *Manager) portBoundWith(pid int, c contribution) float64 {
	if m.opts.NoFastPath {
		return queueBound(m.tree.Port(pid), m.ports[pid], c)
	}
	return queueBoundFast(m.portRate[pid], &m.ports[pid], c)
}

// pathDelayMetric sums per-port delay terms along a path: queue
// capacities normally, or live queue bounds under the ablation option.
func (m *Manager) pathDelayMetric(src, dst int) float64 {
	if !m.opts.DelayCheckUsesBound {
		return m.tree.PathDelayCapacity(src, dst)
	}
	if m.opts.NoFastPath {
		var sum float64
		for _, p := range m.tree.Path(src, dst) {
			sum += queueBound(p, m.ports[p.ID], contribution{})
		}
		return sum
	}
	var buf [6]int
	var sum float64
	for _, pid := range m.tree.AppendPathIDs(buf[:0], src, dst) {
		sum += m.bounds[pid]
	}
	return sum
}

func (m *Manager) portOK(port *topology.Port, c contribution) bool {
	if c.isZero() {
		return true
	}
	return queueBound(port, m.ports[port.ID], c) <= port.QueueCapacity()+1e-12
}

// cutContribution builds the arrival-curve contribution of m tenant
// VMs sending across a cut of an n-VM tenant, with the given ingress
// peak capacity and upstream burst inflation (seconds of queue
// capacity crossed so far).
func (m *Manager) cutContribution(mSide, n int, g tenant.Guarantee, ingressCap, inflation float64) contribution {
	if mSide <= 0 || mSide >= n {
		return contribution{}
	}
	var rate float64
	if m.opts.PlainAggregation {
		rate = float64(mSide) * g.BandwidthBps
	} else {
		other := n - mSide
		lim := mSide
		if other < lim {
			lim = other
		}
		rate = float64(lim) * g.BandwidthBps
	}
	burst := float64(mSide)*g.BurstBytes + rate*inflation
	bmax := g.BurstRateBps
	if bmax <= 0 {
		bmax = g.BandwidthBps
	}
	peak := float64(mSide) * bmax
	if peak > ingressCap {
		peak = ingressCap
	}
	seed := float64(mSide) * m.opts.MTUBytes
	if seed > burst {
		seed = burst
	}
	return contribution{Rate: rate, Burst: burst, Peak: peak, Seed: seed}
}

// inflation returns the worst-case sum of queue capacities a tenant's
// traffic may have crossed before reaching a port at the given level
// and direction, given how far the tenant spans. A rack-local tenant's
// traffic reaches its ToR down ports having crossed only the source
// NIC; a datacenter-spanning tenant's may have crossed the full
// up-and-down chain. Port capacities are uniform per level in the
// tree, so representative ports suffice.
func (m *Manager) inflation(span scopeHeight, level topology.Level, dir topology.Direction) float64 {
	t := m.tree
	nic := t.ServerUpPort(0).QueueCapacity()
	rackUp := t.RackUpPort(0).QueueCapacity()
	podUp := t.PodUpPort(0).QueueCapacity()
	coreDown := t.CoreDownPort(0).QueueCapacity()
	podDown := t.PodDownPort(0).QueueCapacity()
	switch {
	case level == topology.LevelServer && dir == topology.Up:
		return 0
	case level == topology.LevelRack && dir == topology.Up:
		return nic
	case level == topology.LevelPod && dir == topology.Up:
		return nic + rackUp
	case level == topology.LevelCore:
		return nic + rackUp + podUp
	case level == topology.LevelPod && dir == topology.Down:
		if span >= scopeDC {
			return nic + rackUp + podUp + coreDown
		}
		return nic + rackUp
	default: // rack down port
		switch span {
		case scopeRack:
			return nic
		case scopePod:
			return nic + rackUp + podDown
		default:
			return nic + rackUp + podUp + coreDown + podDown
		}
	}
}

// forEachContribution streams the tenant's contribution at every
// directed port its traffic crosses, given its VM layout. fn returning
// false stops the walk early (layoutValid bails at the first violated
// port); the return value reports whether the walk ran to completion.
// Port rates and queue capacities are uniform within each level of the
// tree, so ingress capacities use representative ports.
func (m *Manager) forEachContribution(spec *tenant.Spec, lay *layout, fn func(pid int, c contribution) bool) bool {
	g := spec.Guarantee
	n := lay.total
	t := m.tree
	link := t.Config().LinkBps
	span := lay.span()

	// Server NIC up ports and ToR down ports.
	downInfl := m.inflation(span, topology.LevelRack, topology.Down)
	podDownRate := t.PodDownPort(0).RateBps
	for i, s := range lay.servers {
		k := lay.serverCnt[i]
		ri := lay.serverRack[i]
		// Up: k local VMs send to n−k remote ones; traffic enters the
		// NIC from the local pacer, physically capped at line rate.
		if c := m.cutContribution(k, n, g, link, 0); !c.isZero() {
			if !fn(t.ServerUpPortID(s), c) {
				return false
			}
		}
		// Down: n−k remote VMs send toward s. Ingress to the ToR is
		// capped by the links feeding it that carry tenant traffic:
		// other in-rack servers' NICs plus the rack's downlink if the
		// tenant extends beyond the rack.
		ingress := float64(lay.rackSrv[ri]-1) * link
		if lay.rackCnt[ri] < n {
			ingress += podDownRate
		}
		if c := m.cutContribution(n-k, n, g, ingress, downInfl); !c.isZero() {
			if !fn(t.RackDownPortID(s), c) {
				return false
			}
		}
	}

	// Rack up and pod down ports, only if the tenant spans racks.
	if len(lay.racks) > 1 {
		rackUpInfl := m.inflation(span, topology.LevelRack, topology.Up)
		podDownInfl := m.inflation(span, topology.LevelPod, topology.Down)
		rackUpRate := t.RackUpPort(0).RateBps
		coreDownRate := t.CoreDownPort(0).RateBps
		for ri, r := range lay.racks {
			k := lay.rackCnt[ri]
			if k == n {
				continue // nothing crosses the rack boundary
			}
			// Up: k VMs in rack send out; ingress = servers in rack
			// with VMs.
			ingressUp := float64(lay.rackSrv[ri]) * link
			if c := m.cutContribution(k, n, g, ingressUp, rackUpInfl); !c.isZero() {
				if !fn(t.RackUpPortID(r), c) {
					return false
				}
			}
			// Down into rack r: from other racks in pod + core
			// downlink if the tenant spans pods.
			pi := lay.rackPod[ri]
			ingressDown := float64(lay.podRacks[pi]-1) * rackUpRate
			if lay.podCnt[pi] < n {
				ingressDown += coreDownRate
			}
			if c := m.cutContribution(n-k, n, g, ingressDown, podDownInfl); !c.isZero() {
				if !fn(t.PodDownPortID(r), c) {
					return false
				}
			}
		}
	}

	// Pod up and core down ports, only if the tenant spans pods.
	if len(lay.pods) > 1 {
		podUpInfl := m.inflation(span, topology.LevelPod, topology.Up)
		coreInfl := m.inflation(span, topology.LevelCore, topology.Down)
		rackUpRate := t.RackUpPort(0).RateBps
		podUpRate := t.PodUpPort(0).RateBps
		for pi, p := range lay.pods {
			k := lay.podCnt[pi]
			if k == n {
				continue
			}
			ingressUp := float64(lay.podRacks[pi]) * rackUpRate
			if c := m.cutContribution(k, n, g, ingressUp, podUpInfl); !c.isZero() {
				if !fn(t.PodUpPortID(p), c) {
					return false
				}
			}
			ingressDown := float64(len(lay.pods)-1) * podUpRate
			if c := m.cutContribution(n-k, n, g, ingressDown, coreInfl); !c.isZero() {
				if !fn(t.CoreDownPortID(p), c) {
					return false
				}
			}
		}
	}
	return true
}

// contributions materializes the per-port contribution map for a
// placement (used when committing and when auditing, not in the search
// hot path).
func (m *Manager) contributions(spec *tenant.Spec, servers []int) map[int]contribution {
	out := make(map[int]contribution)
	lay := newLayout(m.tree, servers)
	m.forEachContribution(spec, &lay, func(pid int, c contribution) bool {
		out[pid] = c
		return true
	})
	return out
}

func faultDomainsOK(servers []int, domains int) bool {
	if domains <= 1 {
		return true
	}
	distinct := map[int]bool{}
	for _, s := range servers {
		distinct[s] = true
	}
	return len(distinct) >= domains
}

// VerifyInvariants exhaustively rechecks constraint 1 at every port by
// recomputing contributions of all admitted tenants from scratch; it
// returns an error naming the first violating port, and also
// cross-checks the incrementally maintained queue-bound cache against
// a fresh computation. Intended for tests and post-hoc validation, not
// the hot path.
func (m *Manager) VerifyInvariants() error {
	fresh := make([]portState, m.tree.NumPorts())
	for _, at := range m.admitted {
		if at.placement.Spec.Class == tenant.ClassBestEffort {
			// Best-effort tenants bypass network admission and
			// contribute no arrival curves (paper §4.4).
			continue
		}
		for pid, c := range m.contributions(&at.placement.Spec, at.placement.Servers) {
			fresh[pid].add(c)
		}
	}
	var ar netcal.Arena
	for pid := range fresh {
		port := m.tree.Port(pid)
		got := m.ports[pid]
		want := fresh[pid]
		if math.Abs(got.Rate-want.Rate) > 1e-6 || math.Abs(got.Burst-want.Burst) > 1e-3 ||
			math.Abs(got.Peak-want.Peak) > 1e-3 || got.tenants != want.tenants {
			return fmt.Errorf("port %d state drift: have %+v want %+v", pid, got, want)
		}
		if want.tenants > 0 {
			ar.Reset()
			b := netcal.QueueBound(want.contribution.curveIn(&ar), netcal.NewRateLatency(port.RateBps, 0))
			if b > port.QueueCapacity()+1e-9 {
				return fmt.Errorf("port %d violates constraint 1: bound %v > capacity %v", pid, b, port.QueueCapacity())
			}
		}
		if !m.opts.NoFastPath {
			if live := queueBoundFast(m.portRate[pid], &got, contribution{}); math.Abs(m.bounds[pid]-live) > 1e-9 {
				return fmt.Errorf("port %d bound-cache drift: cached %v live %v", pid, m.bounds[pid], live)
			}
		}
	}
	return nil
}
