package main

// fleet-churn: closed loop with one driver goroutine and no packets. A
// fat-tree k=8 fleet (80 switch agents over net.Pipe) under an
// orchestrator and a health Monitor with the churn soak's compressed
// debounce. The driver toggles seeded multi-tenant intents, converging
// (Plan then Apply) and reading operator status (Monitor.Snapshot)
// after each change; every few changes it kills an agent and ticks the
// monitor back to back until the switch is drained, then restarts it
// and ticks until it is re-admitted.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

const (
	churnK = 8 // fat-tree arity: 80 switches, 8 pods, 32 edge switches
	// Budgets and the intents' width ceiling admit most of the 72
	// tenant intents on the edge switches; queries longer than a
	// partition split across the fabric, so placement runs too.
	churnStages     = 10
	churnArraySize  = 1 << 14
	churnMaxWidth   = 1024
	churnKillEvery  = 3 // intent toggles between kills
	churnKillWithin = 5 * time.Second
)

var errAgentDown = errors.New("agent down")

// churnAgent is one switch agent that can be killed and restarted. The
// client's redial reaches whichever agent is currently alive.
type churnAgent struct {
	name string
	mu   sync.Mutex
	ag   *rpc.Agent
	dead bool
}

func newChurnAgent(name string) (*churnAgent, error) {
	a := &churnAgent{name: name}
	return a, a.start()
}

// start boots the switch with an empty engine: a restart loses all
// installed state, like a reboot.
func (a *churnAgent) start() error {
	layout, err := modules.NewLayout(modules.LayoutCompact, churnStages, churnArraySize)
	if err != nil {
		return err
	}
	eng := modules.NewEngine(layout)
	sw := dataplane.NewSwitch(a.name, churnStages, modules.StageCapacity())
	sw.Monitor = eng
	a.mu.Lock()
	a.ag = rpc.NewAgent(sw, eng)
	a.dead = false
	a.mu.Unlock()
	return nil
}

func (a *churnAgent) kill() {
	a.mu.Lock()
	ag := a.ag
	a.dead = true
	a.mu.Unlock()
	ag.Close()
}

func (a *churnAgent) dial() (net.Conn, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return nil, errAgentDown
	}
	server, client := net.Pipe()
	go a.ag.HandleConn(server)
	return client, nil
}

// churnFleet is the fat-tree fleet with its control plane.
type churnFleet struct {
	topo    *topology.Topology
	agents  map[string]*churnAgent
	clients map[string]*rpc.Client
	names   []string
	ctl     *controller.Remote
	orch    *orchestrator.Orchestrator
	mon     *orchestrator.Monitor
	budgets map[string]scheduler.Budget

	tenants [][]string // tenant -> its pod's edge switch names
	active  map[[2]int]bool
	// tr traces the current phase; probes run on the monitor's
	// goroutines and nest under the tick span in tickSpan.
	tr       *tracer
	tickSpan atomic.Int64
	tickOp   atomic.Int64
	probeMu  sync.Mutex
	probeNs  []float64
}

func buildChurnFleet(seed int64, small bool) (*churnFleet, error) {
	k := churnK
	if small {
		k = 4
	}
	f := &churnFleet{topo: topology.FatTree(k), agents: map[string]*churnAgent{},
		clients: map[string]*rpc.Client{}, budgets: map[string]scheduler.Budget{},
		active: map[[2]int]bool{}, tr: newTracer(false)}
	for _, id := range f.topo.Switches() {
		name := f.topo.Node(id).Name
		a, err := newChurnAgent(name)
		if err != nil {
			return nil, err
		}
		conn, err := a.dial()
		if err != nil {
			return nil, err
		}
		f.agents[name] = a
		f.clients[name] = rpc.NewClientOptions(conn, rpc.Options{
			Timeout: 250 * time.Millisecond, Retries: 1,
			BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: seed,
		}, a.dial)
		f.names = append(f.names, name)
		f.budgets[name] = scheduler.Budget{Stages: churnStages, ArraySize: churnArraySize, RulesPerModule: 256}
	}
	sort.Strings(f.names)
	for p := 0; p < k; p++ {
		var edges []string
		for i := 0; i < k/2; i++ {
			edges = append(edges, fmt.Sprintf("edge%d_%d", p, i))
		}
		f.tenants = append(f.tenants, edges)
	}
	f.ctl = controller.NewRemote(f.clients, seed)
	var err error
	if f.orch, err = orchestrator.New(orchestrator.Config{Topo: f.topo, Budgets: f.budgets}, f.ctl); err != nil {
		return nil, err
	}
	f.mon, err = orchestrator.NewMonitor(f.orch, f.orch.Switches(), orchestrator.HealthConfig{
		Probe:   f.probe,
		Offline: f.ctl.SetOffline,
		// The soak's compressed ladder: two bad rounds drain, two good
		// rounds re-admit.
		SuspectAfter: 1, DownAfter: 1, RecoverAfter: 2,
		ForgetAfter: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	// Each catalog query starts active for a seeded half of the tenants.
	// Changes keep that count per query (see measure), so the planner
	// faces the same mix of queries whatever the seed.
	rng := rand.New(rand.NewSource(seed))
	for q := range query.All() {
		for _, t := range rng.Perm(len(f.tenants))[:len(f.tenants)/2] {
			f.active[[2]int{t, q}] = true
		}
	}
	f.orch.SetIntents(f.intents())
	if _, _, err := f.orch.Converge(); err != nil {
		return nil, fmt.Errorf("initial converge: %w", err)
	}
	return f, nil
}

func (f *churnFleet) probe(name string) error {
	t0 := time.Now()
	_, err := f.clients[name].Stats()
	if f.tr.on {
		t1 := time.Now()
		f.tr.record("rpc.Stats", f.tickOp.Load(), int(f.tickSpan.Load()), t0, t1, false)
		f.probeMu.Lock()
		f.probeNs = append(f.probeNs, float64(t1.Sub(t0)))
		f.probeMu.Unlock()
	}
	return err
}

// intents is every tenant's active intent set: tenant t's copy of each
// active catalog query, monitoring traffic from t's pod.
func (f *churnFleet) intents() []orchestrator.Intent {
	var out []orchestrator.Intent
	for t, edges := range f.tenants {
		for qi, q := range query.All() {
			if !f.active[[2]int{t, qi}] {
				continue
			}
			cp := *q
			cp.Name = fmt.Sprintf("t%d/%s", t, q.Name)
			out = append(out, orchestrator.Intent{Query: &cp, Priority: 100 - qi, Edges: edges,
				MaxWidth: churnMaxWidth})
		}
	}
	return out
}

func (f *churnFleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, a := range f.agents {
		a.mu.Lock()
		ag := a.ag
		a.mu.Unlock()
		ag.Close()
	}
}

// churnPhase is one measured phase of the churn loop.
type churnPhase struct {
	convergeNs, planNs, applyNs, statusNs []float64
	deltas, allocs                        []float64
	tickNs, mttrNs, readmitNs             []float64
	placeNs, schedNs, compileNs           []float64
	neighborsNs                           []float64
	toggles, kills                        int64
	convergeFail, undrained, unreadmitted int64
	admitted, planned                     int
	elapsed                               time.Duration
}

// converge plans and applies, timing each half. A failed converge is
// retried on the next round.
func (f *churnFleet) converge(ph *churnPhase, tr *tracer, op int64) error {
	var m0, m1 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&m0)
	}
	cv := tr.begin("driver.Converge", op, 0)
	t0 := time.Now()
	sp := tr.begin("orchestrator.Plan", op, cv)
	p, d, err := f.orch.Plan()
	tr.end(sp)
	t1 := time.Now()
	if err == nil {
		sp = tr.begin("controller.Apply", op, cv)
		err = f.orch.Apply(p, d)
		tr.end(sp)
	}
	t2 := time.Now()
	tr.end(cv)
	if tr.on {
		runtime.ReadMemStats(&m1)
		ph.allocs = append(ph.allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	ph.planNs = append(ph.planNs, float64(t1.Sub(t0)))
	ph.applyNs = append(ph.applyNs, float64(t2.Sub(t1)))
	ph.convergeNs = append(ph.convergeNs, float64(t2.Sub(t0)))
	ph.deltas = append(ph.deltas, float64(len(d.Deltas)))
	if p != nil {
		ph.planned, ph.admitted = len(p.Queries), 0
		for _, q := range p.Queries {
			if q.Admitted {
				ph.admitted++
			}
		}
	}
	return err
}

// tickUntil ticks the monitor back to back until done reports true or
// the deadline passes. Probe spans nest under the tick that ran them.
func (f *churnFleet) tickUntil(ph *churnPhase, tr *tracer, op int64, parent int, done func(orchestrator.TickReport) bool) bool {
	deadline := time.Now().Add(churnKillWithin)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		sp := tr.begin("orchestrator.Tick", op, parent)
		f.tickSpan.Store(int64(sp))
		f.tickOp.Store(op)
		rep := f.mon.Tick()
		tr.end(sp)
		ph.tickNs = append(ph.tickNs, float64(time.Since(t0)))
		if done(rep) {
			return true
		}
	}
	return false
}

// hosting lists switches that currently host a deployed query.
func (f *churnFleet) hosting() []string {
	set := map[string]bool{}
	for _, qp := range f.orch.Deployed() {
		for _, t := range qp.Targets {
			set[t] = true
		}
		for sw := range qp.Parts {
			set[sw] = true
		}
	}
	var out []string
	for _, n := range f.names {
		if set[n] && !f.orch.IsDrained(n) {
			out = append(out, n)
		}
	}
	return out
}

// kill takes a hosting switch down and measures kill-to-drained, then
// restarts it and waits for re-admission.
func (f *churnFleet) kill(ph *churnPhase, rng *rand.Rand, tr *tracer, op int64) {
	cands := f.hosting()
	if len(cands) == 0 {
		return
	}
	name := cands[rng.Intn(len(cands))]
	a := f.agents[name]
	ph.kills++
	k := tr.begin("driver.Kill", op, 0)
	defer tr.end(k)
	t0 := time.Now()
	a.kill()
	drained := f.tickUntil(ph, tr, op, k, func(rep orchestrator.TickReport) bool {
		st, _ := f.mon.State(name)
		return st == orchestrator.Down && rep.ConvergeErr == nil
	})
	if drained {
		ph.mttrNs = append(ph.mttrNs, float64(time.Since(t0)))
	} else {
		ph.undrained++
	}
	if err := a.start(); err != nil {
		ph.unreadmitted++
		return
	}
	t1 := time.Now()
	ok := f.tickUntil(ph, tr, op, k, func(rep orchestrator.TickReport) bool {
		st, _ := f.mon.State(name)
		return st == orchestrator.Healthy && rep.ConvergeErr == nil
	})
	if ok {
		ph.readmitNs = append(ph.readmitNs, float64(time.Since(t1)))
	} else {
		ph.unreadmitted++
	}
}

// measure runs the churn loop for dur.
func (f *churnFleet) measure(rng *rand.Rand, dur time.Duration, tr *tracer) *churnPhase {
	ph := &churnPhase{}
	f.tr = tr
	queries := query.All()
	t0 := time.Now()
	deadline := t0.Add(dur)
	retry := false
	var op int64
	var last [2]int // the (tenant, query) the previous change withdrew
	for time.Now().Before(deadline) {
		op++
		// Changes alternate: withdraw a seeded active intent, then add
		// the same query for another tenant that does not run it.
		if ph.toggles%2 == 0 {
			last = f.pick(rng, len(queries), -1, -1, false)
		} else {
			last = f.pick(rng, len(queries), last[1], last[0], true)
		}
		key := last
		f.active[key] = !f.active[key]
		f.orch.SetIntents(f.intents())
		ph.toggles++
		if tr.on {
			f.layerProbes(ph, tr, op, key)
		}
		if err := f.converge(ph, tr, op); err != nil {
			if retry {
				ph.convergeFail++
			}
			retry = true
		} else {
			retry = false
		}
		s0 := time.Now()
		sp := tr.begin("orchestrator.Snapshot", op, 0)
		f.mon.Snapshot()
		tr.end(sp)
		ph.statusNs = append(ph.statusNs, float64(time.Since(s0)))
		if ph.toggles%churnKillEvery == 0 {
			f.kill(ph, rng, tr, op)
		}
	}
	if retry {
		if err := f.converge(ph, tr, op); err != nil {
			ph.convergeFail++
		}
	}
	ph.elapsed = time.Since(t0)
	return ph
}

// pick returns a seeded random (tenant, query) whose intent is inactive
// (add) or active (withdraw), restricted to query onlyQ when it is not
// -1 and never for tenant notT.
func (f *churnFleet) pick(rng *rand.Rand, queries, onlyQ, notT int, add bool) [2]int {
	var cands [][2]int
	for t := range f.tenants {
		for q := 0; q < queries; q++ {
			k := [2]int{t, q}
			if f.active[k] != add && t != notT && (onlyQ < 0 || q == onlyQ) {
				cands = append(cands, k)
			}
		}
	}
	return cands[rng.Intn(len(cands))]
}

// layerProbes times the per-layer calls the orchestrator makes inside
// Plan, from outside it: compiling the toggled query, placing it on the
// fleet, admitting its tenant's queries on one switch budget, and
// walking the topology's adjacency.
func (f *churnFleet) layerProbes(ph *churnPhase, tr *tracer, op int64, key [2]int) {
	q := query.All()[key[1]]
	opts := compiler.AllOpts()
	opts.Width = 1 << 12
	t0 := time.Now()
	sp := tr.begin("compiler.Compile", op, 0)
	p, err := compiler.Compile(q, opts)
	tr.end(sp)
	ph.compileNs = append(ph.compileNs, float64(time.Since(t0)))
	if err == nil {
		var edges []int
		for _, n := range f.tenants[key[0]] {
			edges = append(edges, f.topo.NodeByName(n))
		}
		t0 = time.Now()
		sp = tr.begin("placement.Place", op, 0)
		_, _, _ = placement.Place(f.topo, edges, p.NumStages(), churnStages-2)
		tr.end(sp)
		ph.placeNs = append(ph.placeNs, float64(time.Since(t0)))
	}
	var reqs []scheduler.Request
	for qi, q := range query.All() {
		if f.active[[2]int{key[0], qi}] {
			reqs = append(reqs, scheduler.Request{Query: q, Priority: 100 - qi})
		}
	}
	t0 = time.Now()
	sp = tr.begin("scheduler.Plan", op, 0)
	scheduler.Plan(reqs, f.budgets[f.names[0]])
	tr.end(sp)
	ph.schedNs = append(ph.schedNs, float64(time.Since(t0)))
	ids := f.topo.Switches()
	t0 = time.Now()
	sp = tr.begin("topology.Neighbors", op, 0)
	for _, id := range ids {
		f.topo.Neighbors(id)
	}
	tr.end(sp)
	ph.neighborsNs = append(ph.neighborsNs, float64(time.Since(t0))/float64(len(ids)))
}

// finish revives the fleet and checks it reconverges to an empty diff.
func (f *churnFleet) finish(r *result, ph *churnPhase, tr *tracer) {
	ok := f.tickUntil(ph, tr, 0, 0, func(rep orchestrator.TickReport) bool {
		if rep.ConvergeErr != nil {
			return false
		}
		for _, n := range f.names {
			if st, _ := f.mon.State(n); st != orchestrator.Healthy {
				return false
			}
		}
		return true
	})
	if !ok {
		r.violate("fleet did not return to healthy")
	}
	r.attempted++
	if _, d, err := f.orch.Plan(); err != nil {
		r.fail("final_plan_error", 1)
		r.violate("final plan: %v", err)
	} else if !d.Empty() {
		r.fail("final_plan_not_empty", 1)
		r.violate("fleet not reconverged: %d pending deltas", len(d.Deltas))
	}
}

func churnAccount(r *result, ph *churnPhase) {
	r.attempted += ph.toggles + ph.kills
	r.fail("converges_failed_after_retry", ph.convergeFail)
	r.fail("kills_not_drained", ph.undrained)
	r.fail("kills_not_readmitted", ph.unreadmitted)
	if ph.convergeFail+ph.undrained+ph.unreadmitted > 0 {
		r.violate("fleet-churn: %d converges failed after retry, %d kills not drained, %d not re-admitted within %v",
			ph.convergeFail, ph.undrained, ph.unreadmitted, churnKillWithin)
	}
}

func runFleetChurn(o options) (*result, error) {
	r := newResult()
	inputMB := heapLiveMB()
	var setupS []float64
	var f *churnFleet
	for i := 0; i < o.setups(); i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = buildChurnFleet(o.seed, o.small); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer f.close()
	rng := rand.New(rand.NewSource(o.seed + 1))
	dur := o.phase()
	ph := f.measure(rng, dur, newTracer(false))
	churnAccount(r, ph)

	ops := float64(ph.toggles + int64(len(ph.mttrNs)))
	r.endToEnd["throughput_per_s"] = ops / ph.elapsed.Seconds()
	r.endToEnd["latency_p50_ms"] = median(ph.convergeNs) / 1e6
	r.endToEnd["settle_p50_ms"] = median(ph.mttrNs) / 1e6
	r.endToEnd["setup_s"] = median(setupS)
	r.add("fleet_changes_per_s", r.endToEnd["throughput_per_s"], "1/s", int(ops))
	r.add("converge_p50_ms", r.endToEnd["latency_p50_ms"], "ms", len(ph.convergeNs))
	r.add("converge_p90_ms", quantile(ph.convergeNs, 0.9)/1e6, "ms", len(ph.convergeNs))
	r.add("plan_p50_ms", median(ph.planNs)/1e6, "ms", len(ph.planNs))
	r.add("apply_p50_ms", median(ph.applyNs)/1e6, "ms", len(ph.applyNs))
	r.add("status_p50_ms", median(ph.statusNs)/1e6, "ms", len(ph.statusNs))
	r.add("mttr_p50_ms", r.endToEnd["settle_p50_ms"], "ms", len(ph.mttrNs))
	r.add("readmit_p50_ms", median(ph.readmitNs)/1e6, "ms", len(ph.readmitNs))
	r.add("setup_s", r.endToEnd["setup_s"], "s", len(setupS))
	r.props["switches"] = float64(len(f.names))
	r.props["tenants"] = float64(len(f.tenants))
	r.props["intents"] = float64(ph.planned)
	r.props["admitted_share"] = ratio(float64(ph.admitted), float64(ph.planned))
	r.props["kills"] = float64(ph.kills)

	if o.trace {
		untracedP50 := median(ph.convergeNs)
		tr := newTracer(true)
		f.probeMu.Lock()
		f.probeNs = nil
		f.probeMu.Unlock()
		tph := f.measure(rng, dur, tr)
		churnAccount(r, tph)
		churnLayers(r, f, tph)
		r.layers["trace.overhead_pct"] = 100 * ratio(median(tph.convergeNs)-untracedP50, untracedP50)
		tr.fill(r)
		if err := tr.dump(o.out, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	f.finish(r, ph, newTracer(false))
	r.endToEnd["heap_live_mb"] = heapLiveMB() - inputMB
	r.add("heap_live_mb", r.endToEnd["heap_live_mb"], "MB", 1)
	runtime.KeepAlive(f)
	return r, nil
}

func churnLayers(r *result, f *churnFleet, ph *churnPhase) {
	L := r.layers
	f.probeMu.Lock()
	L["rpc.probe_us"] = median(f.probeNs) / 1e3
	f.probeMu.Unlock()
	var ctr rpc.Counters
	for _, c := range f.clients {
		cc := c.Counters()
		ctr.Retries += cc.Retries
		ctr.Redials += cc.Redials
	}
	L["rpc.retries"] = float64(ctr.Retries)
	L["rpc.redials"] = float64(ctr.Redials)
	L["orchestrator.plan_ms"] = median(ph.planNs) / 1e6
	L["controller.apply_ms"] = median(ph.applyNs) / 1e6
	L["controller.deltas_per_apply"] = median(ph.deltas)
	L["orchestrator.tick_ms"] = median(ph.tickNs) / 1e6
	L["orchestrator.admitted_share"] = ratio(float64(ph.admitted), float64(ph.planned))
	L["compiler.compile_ms"] = median(ph.compileNs) / 1e6
	L["placement.place_ms"] = median(ph.placeNs) / 1e6
	L["scheduler.plan_us"] = median(ph.schedNs) / 1e3
	L["topology.neighbors_ns"] = median(ph.neighborsNs)
	L["go.allocs_per_converge"] = median(ph.allocs)
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	L["go.gc_cpu_fraction"] = st.GCCPUFraction
}
