package main

// alert-stream: open loop at a fixed offered packet rate and a fixed
// epoch rate. Four linear switches, each with an rpc.Agent and a
// binary+delta telemetry.Exporter (PolicyBlock) streaming into one
// telemetry.Service over net.Pipe; the nine queries are intents applied
// through the orchestrator, and one extra intent is added and removed at
// a fixed cadence. The MAWI-profile trace carries every attack overlay,
// including a spoofed-source UDP flood that overflows the per-lane
// dispatch cache. One subscriber goroutine receives alerts and merge
// events and runs each epoch's settle check.

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

const (
	alertWindow   = 100 * time.Millisecond // query window = epoch = analyzer dedup window
	alertChunk    = 20 * time.Millisecond  // send granularity of the generator
	alertSwitches = 4
	// alertMaxWidth caps the intents' sketch width so that the epoch
	// roll, which runs on the driver's goroutine and stalls delivery,
	// fits inside one chunk interval: alert latency then follows the
	// packet, export and analyzer path rather than that stall.
	alertMaxWidth = 1024
	// alertRate is the offered packet rate. It leaves the driver's
	// serial path (delivery, export, epoch roll) about a fifth busy
	// (generator_busy_share), so a slower host stretches every stage in
	// proportion instead of making the driver fall behind.
	alertRate = 12000.0

	alertChurnEvery = 5 // epochs between adding and removing the churn intent
	churnIntent     = "churn_new_tcp"
	settleTimeout   = 2 * time.Second
)

// alertInput is one pass of the trace with timestamps rescaled so that
// the pass replays at alertRate; baseTS is ns from the pass start.
type alertInput struct {
	pkts   []*packet.Packet
	baseTS []uint64
	passNs uint64
	// victims maps a query name to the trace's ground-truth victims.
	victims map[string]map[uint32]bool
}

func alertTrace(seed int64, small bool) *alertInput {
	// Attack volumes are sized per query window so that every window of
	// the rescaled trace carries about twice each query's threshold; the
	// flood's distinct spoofed sources outnumber the dispatch cache of
	// every lane. Rescaling to alertRate stretches the trace, so the
	// attacks are sized a second time for the stretched window count.
	flows, sources, windows := 300, 40000, 100
	if small {
		flows, sources, windows = 20, 200, 4
	}
	gen := func(w int) *trace.Trace {
		return trace.Generate(trace.Config{Seed: seed, Profile: trace.MAWI, Flows: flows,
			Duration: time.Duration(w) * alertWindow},
			trace.SYNFlood{Victim: 0x0A0000AA, Packets: 60 * w},
			trace.UDPFlood{Victim: 0x0A0000AB, Sources: sources},
			trace.UDPFlood{Victim: 0x0A0000AF, Sources: sources},
			trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 80 * w},
			trace.SSHBrute{Victim: 0x0A0000AD, Attempts: 40 * w},
			trace.Slowloris{Victim: 0x0A0000AE, Conns: 5 * w},
			trace.DNSNoTCP{Hosts: 3, Queries: 10 * w},
			trace.SuperSpreader{Source: 0x0B000002, Fanout: 80 * w})
	}
	tr := gen(windows)
	for i := 0; i < 2; i++ {
		stretched := int(float64(len(tr.Packets)) / alertRate / alertWindow.Seconds())
		if stretched <= windows {
			break
		}
		windows = stretched
		tr = gen(windows)
	}
	in := &alertInput{pkts: tr.Packets}
	in.passNs = uint64(float64(len(tr.Packets)) / alertRate * 1e9)
	k := float64(in.passNs) / float64(time.Duration(windows)*alertWindow)
	for _, p := range tr.Packets {
		ts := uint64(float64(p.TS) * k)
		if ts >= in.passNs {
			ts = in.passNs - 1
		}
		in.baseTS = append(in.baseTS, ts)
	}
	t := tr.Truth
	in.victims = map[string]map[uint32]bool{
		"q2_ssh_brute": t.SSHBruteVictims, "q3_super_spreader": t.SuperSpreaders,
		"q4_port_scan": t.ScanVictims, "q5_udp_ddos": t.UDPFloodVictims,
		"q6_syn_flood": t.SYNFloodVictims, "q8_slowloris": t.SlowlorisVictims,
		"q9_dns_no_tcp": t.DNSOnlyHosts,
	}
	return in
}

// alertFleet is the monitored network with its control and telemetry
// planes.
type alertFleet struct {
	net     *netsim.Network
	h1, h2  int
	nodes   []*netsim.Node
	agents  []*rpc.Agent
	clients map[string]*rpc.Client
	exps    map[string]*telemetry.Exporter
	svc     *telemetry.Service
	ctl     *controller.Remote
	orch    *orchestrator.Orchestrator
	intents []orchestrator.Intent
}

func buildAlertFleet(lanes int) (*alertFleet, error) {
	topo, h1, h2 := topology.Linear(alertSwitches)
	// The controller's Tick rolls windows; netsim's own clock never does.
	n, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 16, Workers: lanes,
		Window: time.Duration(math.MaxInt64)})
	if err != nil {
		return nil, err
	}
	f := &alertFleet{net: n, h1: h1, h2: h2, clients: map[string]*rpc.Client{},
		exps: map[string]*telemetry.Exporter{},
		svc:  telemetry.NewService(telemetry.ServiceConfig{Window: alertWindow})}
	budgets := map[string]scheduler.Budget{}
	for _, id := range topo.Switches() {
		node := n.Node(id)
		name := node.DP.ID
		agent := rpc.NewAgent(node.DP, node.Eng)
		server, client := net.Pipe()
		go agent.HandleConn(server)
		f.clients[name] = rpc.NewClient(client)
		sconn, econn := net.Pipe()
		go f.svc.HandleConn(sconn)
		exp, err := telemetry.NewExporter(econn, telemetry.ExporterConfig{
			SwitchID: name, Policy: telemetry.PolicyBlock, Codec: telemetry.CodecBinary})
		if err != nil {
			f.close()
			return nil, err
		}
		exp.AttachAgent(agent, node.Eng)
		f.exps[name] = exp
		f.nodes = append(f.nodes, node)
		f.agents = append(f.agents, agent)
		budgets[name] = scheduler.Budget{Stages: 16, ArraySize: 1 << 16, RulesPerModule: 256}
	}
	f.ctl = controller.NewRemote(f.clients, 1)
	f.ctl.AttachTelemetry(f.svc)
	if f.orch, err = orchestrator.New(orchestrator.Config{Topo: topo, Budgets: budgets}, f.ctl); err != nil {
		f.close()
		return nil, err
	}
	for i, q := range query.All() {
		f.intents = append(f.intents, orchestrator.Intent{Query: q, Priority: 100 - i, MaxWidth: alertMaxWidth})
	}
	f.orch.SetIntents(f.intents)
	if _, _, err := f.orch.Converge(); err != nil {
		f.close()
		return nil, fmt.Errorf("initial converge: %w", err)
	}
	return f, nil
}

func (f *alertFleet) close() {
	for _, e := range f.exps {
		e.Close()
	}
	for _, c := range f.clients {
		c.Close()
	}
	for _, a := range f.agents {
		a.Close()
	}
	f.svc.Close()
}

// alertID is the analyzer's dedup identity of an alert.
type alertID struct {
	qid    int
	window uint64
	key    string
}

func idOf(r *dataplane.Report) alertID {
	return alertID{r.QueryID, r.TS / uint64(alertWindow), string(r.KeyMask.Bytes(&r.Keys, nil))}
}

// tickRec is one epoch roll, shared by the generator (which creates it
// before Tick) and the subscriber (which sees its merges).
type tickRec struct {
	epoch             uint32
	qids              []int
	start, end        time.Time
	expect, merges    int
	lastMerge         time.Time
	settled           time.Time
	settleOK, checked bool
}

type alertRec struct {
	id   alertID
	keys fields.Vector // masked operation keys
	ts   uint64
	at   time.Time
}

// alertRun is one measured phase: the generator state and everything
// the subscriber records.
type alertRun struct {
	f  *alertFleet
	in *alertInput
	tr *tracer

	// Generator position: next packet of the current pass, the pass's
	// virtual start, and the virtual time the next chunk starts at.
	idx       int
	passStart uint64
	vnow      uint64
	passes    []uint64 // virtual start of each pass begun in this phase
	split     map[string][]dataplane.Report
	buf       []dataplane.Report

	// Generator-owned records.
	exported map[alertID]int
	packets  int64
	reports  int64
	// deliverAllocs counts heap allocations during DeliverBatch calls
	// (traced phases only: reading them stops the world).
	deliverAllocs uint64
	late          []float64 // ns
	backlogMax    uint64
	convergeNs    []float64
	planNs        []float64
	applyNs       []float64
	compileNs     []float64
	snapNs        []float64
	deltas        []float64
	convergeErrs  int64
	churnOn       bool
	epochs        int
	busy          time.Duration // generator time not spent sleeping
	elapsed       time.Duration // from the phase start to the last chunk's end
	parent        int           // open driver span: the chunk, epoch or converge

	// Shared with the subscriber under mu.
	mu      sync.Mutex
	ticks   map[uint32]*tickRec
	pending *intentRec
	// Subscriber-owned until done closes.
	alerts     []alertRec
	accuracyNs []float64
	intentNs   []float64
	partial    int64
	intentLost int64
}

type intentRec struct {
	qid   int
	start time.Time
}

func newAlertRun(f *alertFleet, in *alertInput, tr *tracer, vstart uint64) *alertRun {
	ar := &alertRun{f: f, in: in, tr: tr, vnow: vstart, passStart: vstart,
		split: map[string][]dataplane.Report{}, exported: map[alertID]int{},
		ticks: map[uint32]*tickRec{}}
	ar.startPass()
	return ar
}

func (ar *alertRun) startPass() {
	for i, p := range ar.in.pkts {
		p.TS = ar.in.baseTS[i] + ar.passStart
	}
	ar.idx = 0
	ar.passes = append(ar.passes, ar.passStart)
}

// sendUntil delivers every packet with virtual time before vend and
// exports the reports it produced.
func (ar *alertRun) sendUntil(vend uint64, op int64) {
	in := ar.in
	for {
		lo := ar.idx
		for ar.idx < len(in.pkts) && in.baseTS[ar.idx]+ar.passStart < vend {
			ar.idx++
		}
		if ar.idx > lo {
			var m0, m1 runtime.MemStats
			if ar.tr.on {
				runtime.ReadMemStats(&m0)
			}
			sp := ar.tr.begin("netsim.DeliverBatch", op, ar.parent)
			ar.f.net.DeliverBatch(in.pkts[lo:ar.idx], ar.f.h1, ar.f.h2)
			ar.tr.end(sp)
			if ar.tr.on {
				runtime.ReadMemStats(&m1)
				ar.deliverAllocs += m1.Mallocs - m0.Mallocs
			}
			ar.packets += int64(ar.idx - lo)
		}
		if ar.idx < len(in.pkts) {
			break
		}
		ar.passStart += in.passNs
		ar.startPass()
		if ar.passStart >= vend {
			break
		}
	}
	ar.export(op)
}

func (ar *alertRun) export(op int64) {
	sp := ar.tr.begin("netsim.DrainReports", op, ar.parent)
	ar.buf = ar.f.net.DrainReportsAppend(ar.buf[:0])
	ar.tr.end(sp)
	ar.reports += int64(len(ar.buf))
	if len(ar.buf) == 0 {
		return
	}
	for k, v := range ar.split {
		ar.split[k] = v[:0]
	}
	for i := range ar.buf {
		r := &ar.buf[i]
		ar.split[r.SwitchID] = append(ar.split[r.SwitchID], *r)
		if ar.exported != nil {
			ar.exported[idOf(r)]++
		}
	}
	for name, rs := range ar.split {
		if len(rs) > 0 {
			sp := ar.tr.begin("telemetry.Export", op, ar.parent)
			ar.f.exps[name].Export(rs)
			ar.tr.end(sp)
		}
	}
}

// tick rolls the epoch on every agent; the subscriber settles it.
func (ar *alertRun) tick(op int64) error {
	f := ar.f
	if ar.tr.on {
		t0 := time.Now()
		sp := ar.tr.begin("modules.SnapshotBanks", op, ar.parent)
		f.nodes[0].Eng.SnapshotBanks()
		ar.tr.end(sp)
		ar.snapNs = append(ar.snapNs, float64(time.Since(t0)))
	}
	rec := &tickRec{epoch: f.nodes[0].Layout.Epoch()}
	for _, n := range f.nodes {
		if n.Eng.InstalledCount() > 0 {
			rec.expect++
		}
	}
	for _, in := range f.intents {
		if qid := f.orch.QID(in.Query.Name); qid != 0 {
			rec.qids = append(rec.qids, qid)
		}
	}
	rec.start = time.Now()
	ar.mu.Lock()
	ar.ticks[rec.epoch] = rec
	ar.mu.Unlock()
	sp := ar.tr.begin("telemetry.Tick", op, ar.parent)
	err := f.ctl.Tick()
	ar.tr.end(sp)
	end := time.Now()
	ar.mu.Lock()
	rec.end = end
	ar.mu.Unlock()
	ar.epochs++
	return err
}

// converge plans and applies the current intent set, timing each half.
func (ar *alertRun) converge(op int64) error {
	o := ar.f.orch
	t0 := time.Now()
	sp := ar.tr.begin("orchestrator.Plan", op, ar.parent)
	p, d, err := o.Plan()
	ar.tr.end(sp)
	t1 := time.Now()
	if err == nil {
		sp = ar.tr.begin("controller.Apply", op, ar.parent)
		err = o.Apply(p, d)
		ar.tr.end(sp)
	}
	t2 := time.Now()
	ar.planNs = append(ar.planNs, float64(t1.Sub(t0)))
	ar.applyNs = append(ar.applyNs, float64(t2.Sub(t1)))
	ar.convergeNs = append(ar.convergeNs, float64(t2.Sub(t0)))
	ar.deltas = append(ar.deltas, float64(len(d.Deltas)))
	return err
}

// churn adds or removes the extra intent.
func (ar *alertRun) churn(op int64) {
	f := ar.f
	intents := f.intents
	if !ar.churnOn {
		q := *query.Q1(uint64(query.DefaultThresholds["q1"]))
		q.Name = churnIntent
		if ar.tr.on {
			o := compiler.AllOpts()
			o.Width = alertMaxWidth
			t0 := time.Now()
			sp := ar.tr.begin("compiler.Compile", op, ar.parent)
			_, _ = compiler.Compile(&q, o)
			ar.tr.end(sp)
			ar.compileNs = append(ar.compileNs, float64(time.Since(t0)))
		}
		intents = append(append([]orchestrator.Intent(nil), f.intents...),
			orchestrator.Intent{Query: &q, Priority: 1, MaxWidth: alertMaxWidth})
	} else {
		ar.mu.Lock()
		if ar.pending != nil {
			ar.intentLost++
			ar.pending = nil
		}
		ar.mu.Unlock()
	}
	f.orch.SetIntents(intents)
	start := time.Now()
	if err := ar.converge(op); err != nil {
		ar.convergeErrs++
		// Retry once: a converge still failing after the next round is
		// the failure counted.
		if err := ar.converge(op); err != nil {
			ar.convergeErrs++
		}
	}
	ar.churnOn = !ar.churnOn
	if ar.churnOn {
		if qid := f.orch.QID(churnIntent); qid != 0 {
			ar.mu.Lock()
			ar.pending = &intentRec{qid: qid, start: start}
			ar.mu.Unlock()
		}
	}
}

// subscriber consumes the analyzer's event stream until it closes.
// Events come first: settle checks advance one query at a time only
// while the channel is empty, so an alert's arrival is stamped when it
// is available, not after a settle check.
func (ar *alertRun) subscriber(ch <-chan telemetry.Event, done chan<- struct{}) {
	defer close(done)
	var queue []*settleJob
	for {
		var ev telemetry.Event
		var open bool
		if len(queue) > 0 {
			select {
			case ev, open = <-ch:
			default:
				if ar.settleStep(queue[0]) {
					queue = queue[1:]
				}
				continue
			}
		} else {
			ev, open = <-ch
		}
		if !open {
			return
		}
		now := time.Now()
		switch ev.Kind {
		case telemetry.EventAlert:
			r := &ev.Report
			ar.alerts = append(ar.alerts, alertRec{idOf(r), r.KeyMask.Apply(&r.Keys), r.TS, now})
		case telemetry.EventSnapshotMerged:
			ar.mu.Lock()
			rec := ar.ticks[ev.Epoch]
			complete := false
			if rec != nil {
				rec.merges++
				rec.lastMerge = now
				complete = rec.merges == rec.expect
			}
			pend := ar.pending
			ar.mu.Unlock()
			if complete {
				queue = append(queue, &settleJob{rec: rec, deadline: now.Add(settleTimeout), ok: true})
			}
			if pend != nil {
				if _, found := ar.f.svc.LatestSettledEpoch(pend.qid); found {
					ar.mu.Lock()
					if ar.pending == pend {
						ar.intentNs = append(ar.intentNs, float64(time.Since(pend.start)))
						ar.pending = nil
					}
					ar.mu.Unlock()
				}
			}
		}
	}
}

// settleJob is one epoch's settle check in progress: next is the index
// of the query to check next.
type settleJob struct {
	rec      *tickRec
	next     int
	deadline time.Time
	ok       bool
}

// settleStep advances j by one query: once the query's latest settled
// epoch covers the job's epoch it reads the query's observed accuracy.
// It reports whether the job is finished.
func (ar *alertRun) settleStep(j *settleJob) bool {
	svc := ar.f.svc
	if j.next < len(j.rec.qids) {
		qid := j.rec.qids[j.next]
		if e, found := svc.LatestSettledEpoch(qid); !found || e < j.rec.epoch {
			if time.Now().Before(j.deadline) {
				time.Sleep(50 * time.Microsecond)
				return false
			}
			j.ok = false
		}
		t0 := time.Now()
		qa, found := svc.ObservedAccuracy(qid, j.rec.epoch, 0)
		ar.accuracyNs = append(ar.accuracyNs, float64(time.Since(t0)))
		if !found || qa.Partial {
			ar.partial++
		}
		j.next++
		if j.next < len(j.rec.qids) {
			return false
		}
	}
	now := time.Now()
	ar.mu.Lock()
	j.rec.settled, j.rec.settleOK, j.rec.checked = now, j.ok, true
	ar.mu.Unlock()
	return true
}

// run drives the open loop for dur: chunk c is due at t0+(c+1)·chunk
// and carries the packets of virtual interval [c·chunk, (c+1)·chunk)
// after the phase start; a window boundary rolls the epoch, and every
// alertChurnEvery epochs the churn intent flips.
func (ar *alertRun) run(dur time.Duration) (t0 time.Time, v0 uint64) {
	f := ar.f
	v0 = ar.vnow
	t0 = time.Now()
	chunks := int(dur / alertChunk)
	perWindow := int(alertWindow / alertChunk)
	for c := 0; c < chunks; c++ {
		op := int64(c + 1)
		due := t0.Add(time.Duration(c+1) * alertChunk)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		busy := time.Now()
		ar.late = append(ar.late, float64(busy.Sub(due)))
		ar.vnow += uint64(alertChunk)
		ar.parent = ar.tr.begin("driver.Chunk", op, 0)
		ar.sendUntil(ar.vnow, op)
		ar.tr.end(ar.parent)
		for _, e := range f.exps {
			st := e.Stats()
			if b := st.Enqueued - st.Exported - st.Dropped; b > ar.backlogMax && st.Enqueued >= st.Exported+st.Dropped {
				ar.backlogMax = b
			}
		}
		if (c+1)%perWindow == 0 {
			ar.parent = ar.tr.begin("driver.Epoch", op, 0)
			if err := ar.tick(op); err != nil {
				ar.convergeErrs++
			}
			ar.tr.end(ar.parent)
			if ar.epochs%alertChurnEvery == 0 {
				ar.parent = ar.tr.begin("driver.Converge", op, 0)
				ar.churn(op)
				ar.tr.end(ar.parent)
			}
		}
		ar.busy += time.Since(busy)
	}
	ar.elapsed = time.Since(t0)
	return t0, v0
}

// quiesce waits until the analyzer has ingested every exported report.
func (f *alertFleet) quiesce() error {
	var want uint64
	for _, e := range f.exps {
		if err := e.Flush(); err != nil {
			return err
		}
		want += e.Stats().Exported
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.svc.Stats().Reports < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("analyzer ingested %d of %d reports", f.svc.Stats().Reports, want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// warm replays a quarter pass unpaced with epoch rolls, so caches,
// buffers, and delta-encoder keyframes settle. It returns the virtual
// time the measured phase starts at (a window boundary).
func (f *alertFleet) warm(in *alertInput) (uint64, error) {
	ar := newAlertRun(f, in, newTracer(false), 0)
	ar.exported = nil
	for v := uint64(alertChunk); v <= in.passNs/4; v += uint64(alertChunk) {
		ar.vnow = v
		ar.sendUntil(v, 0)
		if v%uint64(alertWindow) == 0 {
			if err := f.ctl.Tick(); err != nil {
				return 0, err
			}
		}
	}
	end := (ar.vnow/uint64(alertWindow) + 1) * uint64(alertWindow)
	ar.sendUntil(end, 0)
	if err := f.ctl.Tick(); err != nil {
		return 0, err
	}
	return end, f.quiesce()
}

// alertPhase runs one measured phase and returns its records.
func alertPhase(f *alertFleet, in *alertInput, vstart uint64, dur time.Duration, tr *tracer) (*alertRun, time.Time, error) {
	ar := newAlertRun(f, in, tr, vstart)
	ch, cancel := f.svc.Subscribe(1 << 16) // holds every event of a run: the subscriber must never drop one
	done := make(chan struct{})
	go ar.subscriber(ch, done)
	t0, _ := ar.run(dur)
	if ar.churnOn {
		ar.churn(0) // leave the fleet on the base intents
	}
	err := f.quiesce()
	// Let the last epoch's settle check finish before closing the stream.
	deadline := time.Now().Add(settleTimeout)
	for time.Now().Before(deadline) {
		ar.mu.Lock()
		pending := 0
		for _, rec := range ar.ticks {
			if !rec.checked {
				pending++
			}
		}
		ar.mu.Unlock()
		if pending == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	return ar, t0, err
}

func runAlertStream(o options) (*result, error) {
	r := newResult()
	// One delivery lane: the packet rate is low, and the second core
	// stays free for the exporters, the analyzer and the subscriber, so
	// a slower host does not stall alerts behind a two-lane barrier.
	lanes := 1
	in := alertTrace(o.seed, o.small)
	inputMB := heapLiveMB()

	var setupS []float64
	var f *alertFleet
	var vstart uint64
	for i := 0; i < o.setups(); i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = buildAlertFleet(lanes); err != nil {
			return nil, err
		}
		if vstart, err = f.warm(in); err != nil {
			f.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer f.close()

	dur := o.phase()
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	ar, t0, err := alertPhase(f, in, vstart, dur, newTracer(false))
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	cpu := time.Duration(ru1.Utime.Nano()-ru0.Utime.Nano()) + time.Duration(ru1.Stime.Nano()-ru0.Stime.Nano())
	m := alertAccount(r, ar, t0)
	r.endToEnd["throughput_per_s"] = float64(ar.packets) / ar.elapsed.Seconds()
	r.endToEnd["latency_p50_ms"] = m.alertP50
	r.endToEnd["settle_p50_ms"] = m.settleP50
	r.endToEnd["setup_s"] = median(setupS)
	r.add("setup_s", r.endToEnd["setup_s"], "s", len(setupS))
	r.props["offered_pkts_per_s"] = alertRate
	r.props["epochs_per_s"] = float64(time.Second / alertWindow)
	r.props["switches"] = alertSwitches
	r.props["lanes"] = float64(lanes)
	r.props["host_busy_share"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	r.props["generator_busy_share"] = ar.busy.Seconds() / dur.Seconds()
	r.props["dispatch_miss_ratio"] = m.missRatio
	r.props["trace_packets_per_pass"] = float64(len(in.pkts))
	r.props["pass_seconds"] = float64(in.passNs) / 1e9

	if o.trace {
		vnext := (ar.vnow/uint64(alertWindow) + 1) * uint64(alertWindow)
		untracedP50 := m.alertP50
		tr := newTracer(true)
		tar, tt0, err := alertPhase(f, in, vnext, dur, tr)
		if err != nil {
			return nil, err
		}
		tm := alertAccount(r, tar, tt0)
		alertLayers(r, f, tar, tm, tr)
		r.layers["trace.overhead_pct"] = 100 * ratio(tm.alertP50-untracedP50, untracedP50)
		tr.fill(r)
		if err := tr.dump(o.out, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	r.endToEnd["heap_live_mb"] = heapLiveMB() - inputMB
	r.add("heap_live_mb", r.endToEnd["heap_live_mb"], "MB", 1)
	runtime.KeepAlive(in)
	return r, nil
}

// checkExactlyOnce compares the alerts received against the reports
// exported: every exported (qid, window, key) must arrive exactly once
// and nothing else may arrive.
func checkExactlyOnce(exported map[alertID]int, received []alertID) (missing, dup, unexpected int64) {
	got := map[alertID]int{}
	for _, id := range received {
		got[id]++
	}
	for id := range exported {
		switch n := got[id]; {
		case n == 0:
			missing++
		case n > 1:
			dup += int64(n - 1)
		}
	}
	for id, n := range got {
		if exported[id] == 0 {
			unexpected += int64(n)
		}
	}
	return missing, dup, unexpected
}

type alertMetrics struct {
	alertP50, alertP90, settleP50 float64
	missRatio                     float64
}

// alertAccount checks one phase's outputs and records its metrics.
func alertAccount(r *result, ar *alertRun, t0 time.Time) alertMetrics {
	var m alertMetrics
	var lat []float64
	ids := make([]alertID, 0, len(ar.alerts))
	for _, a := range ar.alerts {
		ids = append(ids, a.id)
		if a.ts < ar.passes[0] {
			continue // not from this phase; counted as unexpected
		}
		chunk := (a.ts - ar.passes[0]) / uint64(alertChunk)
		due := t0.Add(time.Duration(chunk+1) * alertChunk)
		lat = append(lat, float64(a.at.Sub(due)))
	}
	missing, dup, unexpected := checkExactlyOnce(ar.exported, ids)
	r.attempted += int64(len(ar.exported))
	r.fail("alerts_missing", missing)
	r.fail("alerts_duplicated", dup)
	r.fail("alerts_unexpected", unexpected)
	if missing+dup+unexpected > 0 {
		r.violate("alert stream not exactly-once: %d missing, %d duplicated, %d unexpected of %d exported",
			missing, dup, unexpected, len(ar.exported))
	}

	// Epoch settle.
	var settle, mergeLag []float64
	var never int64
	for _, rec := range ar.ticks {
		if !rec.checked || !rec.settleOK {
			never++
			continue
		}
		settle = append(settle, float64(rec.settled.Sub(rec.start)))
		lag := float64(rec.lastMerge.Sub(rec.end))
		mergeLag = append(mergeLag, math.Max(lag, 0))
	}
	r.attempted += int64(len(ar.ticks))
	r.fail("epochs_never_settled", never)
	r.fail("intents_never_settled", ar.intentLost)
	r.fail("converges_failed", ar.convergeErrs)
	if never > 0 {
		r.violate("%d of %d epochs never settled", never, len(ar.ticks))
	}

	// Loss accounting on the telemetry plane.
	var wireBytes, dropped uint64
	for _, e := range ar.f.exps {
		st := e.Stats()
		wireBytes += st.WireBytes
		dropped += st.Dropped
	}
	sst := ar.f.svc.Stats()
	r.fail("export_dropped", int64(dropped))
	r.fail("chain_breaks", int64(sst.ChainBreaks))
	r.fail("subscriber_drops", int64(sst.SubscriberDrops))
	if dropped+sst.ChainBreaks+sst.SubscriberDrops > 0 {
		r.violate("telemetry lost data: %d export drops, %d chain breaks, %d subscriber drops",
			dropped, sst.ChainBreaks, sst.SubscriberDrops)
	}

	// Detection recall: the share of (victim, window) pairs, over the
	// phase's query windows, in which the victim's query alerted on it.
	names := map[int]string{}
	for _, in := range ar.f.intents {
		names[ar.f.orch.QID(in.Query.Name)] = in.Query.Name
	}
	w0, w1 := ar.passes[0]/uint64(alertWindow), ar.vnow/uint64(alertWindow)
	detected := map[[3]uint64]bool{}
	for _, a := range ar.alerts {
		if a.id.window < w0 || a.id.window >= w1 {
			continue
		}
		for v := range ar.in.victims[names[a.id.qid]] {
			if a.keys.Get(fields.SrcIP) == uint64(v) || a.keys.Get(fields.DstIP) == uint64(v) {
				detected[[3]uint64{uint64(a.id.qid), uint64(v), a.id.window}] = true
			}
		}
	}
	victims := 0
	for _, vs := range ar.in.victims {
		victims += len(vs)
	}
	windows := int(w1 - w0)
	recall := ratio(float64(len(detected)), float64(victims*windows))

	m.alertP50 = median(lat) / 1e6
	m.alertP90 = quantile(lat, 0.9) / 1e6
	m.settleP50 = median(settle) / 1e6
	epochs := float64(len(ar.ticks))
	var pk, miss uint64
	for _, n := range ar.f.nodes {
		p, d, _ := n.Eng.Counters()
		pk += p
		miss += d
	}
	m.missRatio = ratio(float64(miss), float64(pk))

	r.add("pkts_per_s_carried", float64(ar.packets)/ar.elapsed.Seconds(), "1/s", int(ar.packets))
	r.add("alert_p50_ms", m.alertP50, "ms", len(lat))
	r.add("alert_p90_ms", m.alertP90, "ms", len(lat))
	r.add("settle_p50_ms", m.settleP50, "ms", len(settle))
	r.add("settle_p90_ms", quantile(settle, 0.9)/1e6, "ms", len(settle))
	r.add("merge_lag_p50_ms", median(mergeLag)/1e6, "ms", len(mergeLag))
	r.add("intent_settle_p50_ms", median(ar.intentNs)/1e6, "ms", len(ar.intentNs))
	r.add("wire_bytes_per_epoch", ratio(float64(wireBytes), epochs), "B", len(ar.ticks))
	r.add("detect_recall", recall, "ratio", victims*windows)
	r.add("generator_late_p50_ms", median(ar.late)/1e6, "ms", len(ar.late))
	r.add("generator_late_p90_ms", quantile(ar.late, 0.9)/1e6, "ms", len(ar.late))
	r.add("generator_late_max_ms", quantile(ar.late, 1)/1e6, "ms", len(ar.late))
	r.add("converge_p50_ms", median(ar.convergeNs)/1e6, "ms", len(ar.convergeNs))
	if recall == 0 {
		r.violate("no ground-truth victim was detected")
	}
	return m
}

// alertLayers fills the per-layer metrics of a traced phase.
func alertLayers(r *result, f *alertFleet, ar *alertRun, m alertMetrics, tr *tracer) {
	L := r.layers
	sum := tr.summarize()
	if ls := sum["netsim"]; ls != nil {
		L["netsim.deliver_ns_per_pkt"] = ratio(float64(ls.byName["netsim.DeliverBatch"]), float64(ar.packets))
		L["netsim.drain_ns_per_report"] = ratio(float64(ls.byName["netsim.DrainReports"]), float64(ar.reports))
	}
	_, dropped := f.net.Stats()
	L["netsim.dropped"] = float64(dropped)
	L["modules.dispatch_miss_ratio"] = m.missRatio
	var scans uint64
	var pk uint64
	var execs [4]uint64
	for _, n := range f.nodes {
		scans += n.Layout.TernaryScans()
		p, _, e := n.Eng.Counters()
		pk += p
		for k := range execs {
			execs[k] += e[k]
		}
	}
	L["dataplane.ternary_scans_per_pkt"] = ratio(float64(scans), float64(pk))
	for k, name := range []string{"K", "H", "S", "R"} {
		L["modules.execs_per_pkt."+name] = ratio(float64(execs[k]), float64(pk))
	}
	L["modules.allocs_per_pkt"] = ratio(float64(ar.deliverAllocs), float64(ar.packets))
	L["modules.snapshot_ms"] = median(ar.snapNs) / 1e6
	L["compiler.compile_ms"] = median(ar.compileNs) / 1e6
	var enc, snaps, delta, key, wire, payload uint64
	for _, e := range f.exps {
		st := e.Stats()
		enc += st.EncodeNs
		snaps += st.Snapshots
		delta += st.DeltaBanks
		key += st.KeyframeBanks
		wire += st.WireBytes
		payload += st.PayloadBytes
	}
	L["wire.encode_ns_per_epoch"] = ratio(float64(enc), float64(snaps))
	L["wire.delta_bank_share"] = ratio(float64(delta), float64(delta+key))
	L["wire.compress_ratio"] = ratio(float64(wire), float64(payload))
	var tick, lag []float64
	for _, rec := range ar.ticks {
		tick = append(tick, float64(rec.end.Sub(rec.start)))
		if rec.checked {
			lag = append(lag, math.Max(float64(rec.lastMerge.Sub(rec.end)), 0))
			merged := rec.lastMerge
			if merged.Before(rec.end) {
				merged = rec.end
			}
			tr.record("telemetry.MergeWait", int64(rec.epoch), 0, rec.end, merged, true)
			tr.record("telemetry.SettleWait", int64(rec.epoch), 0, merged, rec.settled, true)
		}
	}
	L["telemetry.tick_ms"] = median(tick) / 1e6
	L["telemetry.merge_lag_ms"] = median(lag) / 1e6
	L["telemetry.accuracy_us"] = median(ar.accuracyNs) / 1e3
	L["telemetry.export_backlog_max"] = float64(ar.backlogMax)
	sst := f.svc.Stats()
	L["telemetry.dup_alert_ratio"] = ratio(float64(sst.DuplicateAlerts), float64(sst.Reports))
	var dr uint64
	for _, e := range f.exps {
		dr += e.Stats().Dropped
	}
	L["telemetry.export_dropped"] = float64(dr)
	L["telemetry.chain_breaks"] = float64(sst.ChainBreaks)
	L["telemetry.partial_epochs"] = float64(ar.partial)
	L["telemetry.subscriber_drops"] = float64(sst.SubscriberDrops)
	var ctr rpc.Counters
	for _, c := range f.clients {
		cc := c.Counters()
		ctr.Retries += cc.Retries
		ctr.Redials += cc.Redials
	}
	L["rpc.retries"] = float64(ctr.Retries)
	L["rpc.redials"] = float64(ctr.Redials)
	L["orchestrator.plan_ms"] = median(ar.planNs) / 1e6
	L["controller.apply_ms"] = median(ar.applyNs) / 1e6
	L["controller.deltas_per_apply"] = median(ar.deltas)
	admitted := 0
	if p, _, err := f.orch.Plan(); err == nil {
		for _, q := range p.Queries {
			if q.Admitted {
				admitted++
			}
		}
		L["orchestrator.admitted_share"] = ratio(float64(admitted), float64(len(p.Queries)))
	}
	L["driver.generator_late_p90_ms"] = quantile(ar.late, 0.9) / 1e6
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	L["go.gc_cpu_fraction"] = st.GCCPUFraction
}
