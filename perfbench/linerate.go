package main

// linerate: closed-loop packet path on one fully loaded switch. All nine
// Table-2 queries at width 4096, a CAIDA-profile trace (2000 flows, SYN
// flood and port scan) replayed pass after pass through DeliverBatch at
// nproc lanes. Each window is checked against a single-lane replay of
// the same window: no drops and equal order-invariant state banks.
//
// Only part of a window's outcome is invariant under reordering. Lanes
// keep per-flow order but interleave flows at random, and at this key
// density the trace's Bloom rows have collisions, so which of two
// colliding keys a Distinct admits depends on cross-flow order. The
// Count rows behind a Distinct, and the alerts they raise, then differ
// from the single-lane replay even when a single lane is fed the same
// packets in another per-flow order. Those are counted and printed as
// order-dependent, not failed: they have no one right value to check.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

const lineWindow = 100 * time.Millisecond

// lineInput is the replayed trace, cut into query windows. Each pass
// shifts every timestamp by passNs so windows keep rolling.
type lineInput struct {
	pkts    []*packet.Packet
	baseTS  []uint64
	windows [][2]int // packet index range of each window
	passNs  uint64
	chunk   int // packets per DeliverBatch call
}

func lineTrace(seed int64, small bool) *lineInput {
	flows, syn, ports, chunk := 2000, 600, 200, 32768
	if small {
		flows, syn, ports, chunk = 200, 100, 50, 512
	}
	tr := trace.Generate(trace.Config{Seed: seed, Flows: flows, Duration: 4 * lineWindow},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: syn},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: ports})
	in := &lineInput{pkts: tr.Packets, chunk: chunk}
	win := uint64(lineWindow)
	var last uint64
	for i, p := range tr.Packets {
		in.baseTS = append(in.baseTS, p.TS)
		w := int(p.TS / win)
		for len(in.windows) <= w {
			in.windows = append(in.windows, [2]int{i, i})
		}
		in.windows[w][1] = i + 1
		last = p.TS
	}
	in.passNs = (last/win + 1) * win
	return in
}

func (in *lineInput) setPass(pass int) {
	off := uint64(pass) * in.passNs
	for i, p := range in.pkts {
		p.TS = in.baseTS[i] + off
	}
}

// lineNet is one switch with the nine queries installed.
type lineNet struct {
	net    *netsim.Network
	node   *netsim.Node
	h1, h2 int
	pass   int // next pass number to replay
	sink   []dataplane.Report
}

func compileAll(tr *tracer) ([]*modules.Program, error) {
	var progs []*modules.Program
	for i, q := range query.All() {
		o := compiler.AllOpts()
		o.QID = i + 1
		o.Width = 1 << 12
		sp := tr.begin("compiler.Compile", 0, 0)
		p, err := compiler.Compile(q, o)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", q.Name, err)
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func buildLineNet(lanes int, tr *tracer) (*lineNet, error) {
	topo, h1, h2 := topology.Linear(1)
	n, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 16, Workers: lanes, Window: lineWindow})
	if err != nil {
		return nil, err
	}
	ln := &lineNet{net: n, node: n.Node(topo.Switches()[0]), h1: h1, h2: h2}
	progs, err := compileAll(tr)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if err := ln.node.Eng.Install(p); err != nil {
			return nil, fmt.Errorf("install qid %d: %w", p.QID, err)
		}
	}
	return ln, nil
}

// windowResult is what one window produced: digests of its
// order-invariant and its Distinct-gated state banks, its alert-key set
// and how many of its reports repeat an earlier (query, key) pair.
type windowResult struct {
	banks, gated uint64
	alerts       map[string]bool
	repeats      int
}

// replayWindow delivers window w of the current pass in DeliverBatch
// chunks of in.chunk packets and returns its outcome, timing deliver,
// drain and snapshot. The latency of each full chunk is appended to
// chunkLat (ns) when it is non-nil.
func (ln *lineNet) replayWindow(in *lineInput, w int, tr *tracer, op int64, parent int, chunkLat *[]float64) (res windowResult, deliver, drain, snap time.Duration, reports int) {
	lo, hi := in.windows[w][0], in.windows[w][1]
	t0 := time.Now()
	for c := lo; c < hi; c += in.chunk {
		e := min(c+in.chunk, hi)
		c0 := time.Now()
		sp := tr.begin("netsim.DeliverBatch", op, parent)
		ln.net.DeliverBatch(in.pkts[c:e], ln.h1, ln.h2)
		tr.end(sp)
		if chunkLat != nil && e-c == in.chunk {
			*chunkLat = append(*chunkLat, float64(time.Since(c0)))
		}
	}
	t1 := time.Now()
	sp := tr.begin("netsim.DrainReports", op, parent)
	ln.sink = ln.net.DrainReportsAppend(ln.sink[:0])
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("modules.SnapshotBanks", op, parent)
	banks := ln.node.Eng.SnapshotBanks()
	tr.end(sp)
	t3 := time.Now()
	exact, gated := splitBanks(banks)
	res.banks = bankDigest(exact)
	res.gated = bankDigest(gated)
	res.alerts, res.repeats = alertKeys(ln.sink)
	return res, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), len(ln.sink)
}

// splitBanks separates the Count rows that sit behind a Distinct in
// their branch (a CMS row after a Bloom row) from every other row. Bloom
// rows are OR-monotone and ungated CMS rows are sums, so those match a
// sequential replay under any interleaving; gated rows do not once the
// Bloom rows collide.
func splitBanks(banks []modules.BankSnapshot) (exact, gated []modules.BankSnapshot) {
	firstBloom := map[[3]int]int{}
	for _, b := range banks {
		k := [3]int{b.QueryID, b.Part, b.Branch}
		if r, ok := firstBloom[k]; b.Kind == modules.BankBloomRow && (!ok || b.Row < r) {
			firstBloom[k] = b.Row
		}
	}
	for _, b := range banks {
		r, ok := firstBloom[[3]int{b.QueryID, b.Part, b.Branch}]
		if b.Kind == modules.BankCMSRow && ok && b.Row > r {
			gated = append(gated, b)
		} else {
			exact = append(exact, b)
		}
	}
	return exact, gated
}

// bankDigest hashes every bank's values in (qid, part, branch, row)
// order.
func bankDigest(banks []modules.BankSnapshot) uint64 {
	sort.Slice(banks, func(i, j int) bool {
		a, b := banks[i], banks[j]
		if a.QueryID != b.QueryID {
			return a.QueryID < b.QueryID
		}
		if a.Part != b.Part {
			return a.Part < b.Part
		}
		if a.Branch != b.Branch {
			return a.Branch < b.Branch
		}
		return a.Row < b.Row
	})
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range banks {
		for _, x := range []int{b.QueryID, b.Part, b.Branch, b.Row, len(b.Values)} {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
		for _, v := range b.Values {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// alertKeys is the set of (query, masked key) pairs reported, and the
// number of reports that repeat a pair already in the set.
func alertKeys(rs []dataplane.Report) (map[string]bool, int) {
	out := make(map[string]bool, len(rs))
	repeats := 0
	for i := range rs {
		r := &rs[i]
		k := string(r.KeyMask.Bytes(&r.Keys, []byte{byte(r.QueryID)}))
		if out[k] {
			repeats++
		}
		out[k] = true
	}
	return out, repeats
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// warm replays whole passes untimed and unchecked.
func (ln *lineNet) warm(in *lineInput, passes int) {
	for p := 0; p < passes; p++ {
		in.setPass(ln.pass)
		ln.pass++
		ln.net.DeliverBatch(in.pkts, ln.h1, ln.h2)
		ln.sink = ln.net.DrainReportsAppend(ln.sink[:0])
	}
}

// linePhase is one measured phase of the linerate loop.
type linePhase struct {
	packets, reports            int64
	deliver, drain              time.Duration
	chunkLat, closeLat, snapLat []float64 // ns
	windows, mismatched         int64
	banksDiffer                 int64
	// Order-dependent outcomes: windows whose Distinct-gated banks or
	// alert-key sets differ from the single-lane replay, and reports
	// repeating a (query, key) pair beyond the replay's repeats.
	gatedDiffer, alertsDiffer int64
	extraRepeats              int64
	dropped                   uint64
	pkts0, miss0              uint64
	execs0                    [modules.NumKinds]uint64
	scans0                    uint64
	pkts1, miss1              uint64
	execs1                    [modules.NumKinds]uint64
	scans1                    uint64
}

func (ln *lineNet) measure(in *lineInput, ref []windowResult, dur time.Duration, tr *tracer) *linePhase {
	ph := &linePhase{}
	eng := ln.node.Eng
	ph.pkts0, ph.miss0, ph.execs0 = eng.Counters()
	ph.scans0 = ln.node.Layout.TernaryScans()
	_, drop0 := ln.net.Stats()
	deadline := time.Now().Add(dur)
	op := int64(0)
	for time.Now().Before(deadline) {
		in.setPass(ln.pass)
		ln.pass++
		for w := range in.windows {
			op++
			_, d0 := ln.net.Stats()
			win := tr.begin("driver.Window", op, 0)
			res, deliver, drain, snap, nrep := ln.replayWindow(in, w, tr, op, win, &ph.chunkLat)
			tr.end(win)
			_, d1 := ln.net.Stats()
			ph.packets += int64(in.windows[w][1] - in.windows[w][0])
			ph.reports += int64(nrep)
			ph.deliver += deliver
			ph.drain += drain
			ph.closeLat = append(ph.closeLat, float64(drain+snap))
			ph.snapLat = append(ph.snapLat, float64(snap))
			ph.windows++
			banksDiffer := res.banks != ref[w].banks
			if banksDiffer {
				ph.banksDiffer++
			}
			if d1 != d0 || banksDiffer {
				ph.mismatched++
			}
			if res.gated != ref[w].gated {
				ph.gatedDiffer++
			}
			if !sameKeys(res.alerts, ref[w].alerts) {
				ph.alertsDiffer++
			}
			ph.extraRepeats += int64(max(res.repeats-ref[w].repeats, 0))
		}
	}
	_, drop1 := ln.net.Stats()
	ph.dropped = drop1 - drop0
	ph.pkts1, ph.miss1, ph.execs1 = eng.Counters()
	ph.scans1 = ln.node.Layout.TernaryScans()
	return ph
}

func (ph *linePhase) nsPerPkt() float64 {
	return ratio(float64(ph.deliver+ph.drain), float64(ph.packets))
}

// reference replays one pass on a single lane: the expected outcome of
// every window.
func lineReference(in *lineInput) ([]windowResult, error) {
	ref, err := buildLineNet(1, nil)
	if err != nil {
		return nil, err
	}
	in.setPass(0)
	out := make([]windowResult, len(in.windows))
	for w := range in.windows {
		out[w], _, _, _, _ = ref.replayWindow(in, w, nil, 0, 0, nil)
	}
	return out, nil
}

func runLinerate(o options) (*result, error) {
	r := newResult()
	lanes := runtime.NumCPU()
	in := lineTrace(o.seed, o.small)
	ref, err := lineReference(in)
	if err != nil {
		return nil, err
	}
	inputMB := heapLiveMB()

	// Set-up: build, compile, install, and two warm passes (epochs,
	// dispatch caches, report buffers). Repeated; the last one is kept.
	var setupS []float64
	var ln *lineNet
	for i := 0; i < o.setups(); i++ {
		runtime.GC()
		t0 := time.Now()
		ln, err = buildLineNet(lanes, nil)
		if err != nil {
			return nil, err
		}
		ln.warm(in, 2)
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	dur := o.phase()
	tr := newTracer(false)
	ph := ln.measure(in, ref, dur, tr)
	lineAccount(r, ph)

	r.endToEnd["throughput_per_s"] = ratio(1e9, ph.nsPerPkt())
	r.endToEnd["latency_p50_ms"] = median(ph.chunkLat) / 1e6
	r.endToEnd["settle_p50_ms"] = median(ph.closeLat) / 1e6
	r.endToEnd["setup_s"] = median(setupS)
	r.add("pkts_per_s", r.endToEnd["throughput_per_s"], "1/s", int(ph.packets))
	r.add("ns_per_pkt", ph.nsPerPkt(), "ns", int(ph.packets))
	r.add("chunk_deliver_p50_ms", r.endToEnd["latency_p50_ms"], "ms", len(ph.chunkLat))
	r.add("chunk_deliver_p90_ms", quantile(ph.chunkLat, 0.9)/1e6, "ms", len(ph.chunkLat))
	r.add("window_close_p50_ms", r.endToEnd["settle_p50_ms"], "ms", len(ph.closeLat))
	r.add("setup_s", r.endToEnd["setup_s"], "s", len(setupS))
	r.props["lanes"] = float64(lanes)
	r.props["queries"] = float64(len(query.All()))
	r.props["trace_packets_per_pass"] = float64(len(in.pkts))
	r.props["dispatch_miss_ratio"] = ratio(float64(ph.miss1-ph.miss0), float64(ph.pkts1-ph.pkts0))

	if o.trace {
		tr.on = true
		tph := ln.measure(in, ref, dur, tr)
		lineAccount(r, tph)
		lineLayers(r, ln, in, ph, tph, tr)
		tr.fill(r)
		if err := tr.dump(o.out, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	r.endToEnd["heap_live_mb"] = heapLiveMB() - inputMB
	r.add("heap_live_mb", r.endToEnd["heap_live_mb"], "MB", 1)
	runtime.KeepAlive(ln)
	runtime.KeepAlive(in)
	runtime.KeepAlive(ref)
	return r, nil
}

// lineAccount folds a phase's windows into the operation counts. A
// window fails when it dropped packets or its order-invariant banks
// differ from the single-lane replay; order-dependent differences are
// counted apart.
func lineAccount(r *result, ph *linePhase) {
	r.attempted += ph.windows
	r.fail("windows_differ_from_single_lane", ph.mismatched)
	r.failures["of_which_banks_differ"] += ph.banksDiffer
	r.orderDependent["windows_gated_banks_differ"] += ph.gatedDiffer
	r.orderDependent["windows_alert_keys_differ"] += ph.alertsDiffer
	r.orderDependent["extra_repeated_reports"] += ph.extraRepeats
	if ph.dropped > 0 {
		r.violate("linerate dropped %d packets", ph.dropped)
	}
	if ph.windows == 0 {
		r.violate("linerate measured no window")
	}
}

// lineLayers measures the per-packet ledger: the traced phase's
// per-layer counters, then standalone single-lane replays that split
// delivery into netsim, dataplane and modules time.
func lineLayers(r *result, ln *lineNet, in *lineInput, untraced, ph *linePhase, tr *tracer) {
	pk := float64(ph.pkts1 - ph.pkts0)
	L := r.layers
	L["netsim.deliver_ns_per_pkt"] = ratio(float64(ph.deliver), float64(ph.packets))
	L["netsim.drain_ns_per_report"] = ratio(float64(ph.drain), float64(ph.reports))
	L["netsim.dropped"] = float64(ph.dropped)
	L["dataplane.ternary_scans_per_pkt"] = ratio(float64(ph.scans1-ph.scans0), pk)
	L["modules.dispatch_miss_ratio"] = ratio(float64(ph.miss1-ph.miss0), pk)
	for k, name := range []string{"K", "H", "S", "R"} {
		L["modules.execs_per_pkt."+name] = ratio(float64(ph.execs1[k]-ph.execs0[k]), pk)
	}
	L["modules.snapshot_ms"] = median(ph.snapLat) / 1e6
	L["ledger.sum_ns_per_pkt"] = ph.nsPerPkt()
	L["ledger.error_pct"] = 100 * ratio(ph.nsPerPkt()-untraced.nsPerPkt(), untraced.nsPerPkt())
	L["trace.overhead_pct"] = L["ledger.error_pct"]

	// Allocations on the packet path alone: whole passes, no checks.
	passes := 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	for p := 0; p < passes; p++ {
		in.setPass(ln.pass)
		ln.pass++
		ln.net.DeliverBatch(in.pkts, ln.h1, ln.h2)
		ln.sink = ln.net.DrainReportsAppend(ln.sink[:0])
		n += len(in.pkts)
	}
	runtime.ReadMemStats(&m1)
	L["modules.allocs_per_pkt"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(n))
	st := runtime.MemStats{}
	runtime.ReadMemStats(&st)
	L["go.gc_cpu_fraction"] = st.GCCPUFraction

	// Single-lane split of the same trace: netsim delivery, a standalone
	// switch with the engine (dataplane + modules), and without it
	// (dataplane alone).
	one, err := buildLineNet(1, nil)
	if err != nil {
		r.violate("ledger: %v", err)
		return
	}
	one.warm(in, 2)
	deliver1 := timePasses(in, passes, func() {
		in.setPass(one.pass)
		one.pass++
		one.net.DeliverBatch(in.pkts, one.h1, one.h2)
		one.sink = one.net.DrainReportsAppend(one.sink[:0])
	})
	withEng, err := standaloneSwitch(true)
	if err != nil {
		r.violate("ledger: %v", err)
		return
	}
	bare, _ := standaloneSwitch(false)
	procWith := timePasses(in, passes, func() {
		sp := tr.begin("dataplane.Process", 0, 0)
		processPass(withEng, in)
		tr.end(sp)
	})
	procBare := timePasses(in, passes, func() { processPass(bare, in) })
	L["netsim.lane_speedup"] = ratio(deliver1, L["netsim.deliver_ns_per_pkt"])
	L["netsim.self_ns_per_pkt"] = deliver1 - procWith
	L["dataplane.process_ns_per_pkt"] = procWith
	L["modules.execute_ns_per_pkt"] = procWith - procBare
	r.add("ledger.deliver_1lane_ns_per_pkt", deliver1, "ns", passes*len(in.pkts))
	r.add("ledger.process_ns_per_pkt", procWith, "ns", passes*len(in.pkts))
	r.add("ledger.process_bare_ns_per_pkt", procBare, "ns", passes*len(in.pkts))
}

// timePasses runs f passes times (after one warm call) and returns
// wall ns per packet.
func timePasses(in *lineInput, passes int, f func()) float64 {
	f()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		f()
	}
	return float64(time.Since(t0)) / float64(passes*len(in.pkts))
}

// standaloneSwitch is one dataplane switch outside netsim, with the nine
// queries on a module engine (withEngine) or with no monitoring program.
type standalone struct {
	sw   *dataplane.Switch
	eng  *modules.Engine
	sink []dataplane.Report
}

func standaloneSwitch(withEngine bool) (*standalone, error) {
	sw := dataplane.NewSwitch("solo", 16, modules.StageCapacity())
	if err := sw.AddRoute(0, 0, 1); err != nil {
		return nil, err
	}
	s := &standalone{sw: sw}
	if !withEngine {
		return s, nil
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<16)
	if err != nil {
		return nil, err
	}
	s.eng = modules.NewEngine(layout)
	sw.Monitor = s.eng
	progs, err := compileAll(nil)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if err := s.eng.Install(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// processPass runs one pass through Switch.Process, rolling the engine
// epoch at each window boundary as netsim does.
func processPass(s *standalone, in *lineInput) {
	for _, win := range in.windows {
		for _, p := range in.pkts[win[0]:win[1]] {
			s.sw.Process(p)
		}
		if s.eng != nil {
			s.eng.RollEpoch()
		}
	}
	s.sink = s.sw.DrainReportsAppend(s.sink[:0])
}
