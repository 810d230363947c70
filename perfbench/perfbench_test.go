package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
)

// TestWorkloadsSmall runs every workload at a tiny size, untraced and
// traced, and checks that each reports every metric it owes.
func TestWorkloadsSmall(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: traced, out: t.TempDir(), small: true}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(r.violations) > 0 {
				t.Errorf("%s trace=%v: violations %v", name, traced, r.violations)
			}
			if r.attempted < 1 {
				t.Errorf("%s trace=%v: nothing attempted", name, traced)
			}
			fl := r.final(traced)
			want := endToEndMetrics
			if traced {
				want = layerMetrics
			}
			if len(fl.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(fl.Metrics), len(want))
			}
			if !traced {
				for _, m := range endToEndMetrics {
					if v := fl.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v)
					}
				}
			}
		}
	}
}

// TestExactlyOnceCatchesTampering runs a short alert-stream phase, then
// checks that the exactly-once counter accepts the received alert list
// as is and counts a dropped, a duplicated and a foreign alert.
func TestExactlyOnceCatchesTampering(t *testing.T) {
	in := alertTrace(3, true)
	f, err := buildAlertFleet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	vstart, err := f.warm(in)
	if err != nil {
		t.Fatal(err)
	}
	ar, _, err := alertPhase(f, in, vstart, time.Second, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	var ids []alertID
	for _, a := range ar.alerts {
		ids = append(ids, a.id)
	}
	if len(ids) < 2 {
		t.Fatalf("only %d alerts received; need two to tamper with", len(ids))
	}
	if m, d, u := checkExactlyOnce(ar.exported, ids); m+d+u != 0 {
		t.Fatalf("untampered stream: %d missing, %d duplicated, %d unexpected", m, d, u)
	}
	tampered := append([]alertID(nil), ids[1:]...)           // drop the first
	tampered = append(tampered, ids[1])                      // duplicate another
	tampered = append(tampered, alertID{qid: 999, key: "x"}) // one nobody exported
	m, d, u := checkExactlyOnce(ar.exported, tampered)
	if m != 1 || d != 1 || u != 1 {
		t.Fatalf("tampered stream: got %d missing, %d duplicated, %d unexpected; want 1 each", m, d, u)
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// metrics the program prints, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: file %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	for _, w := range spec.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workload), len(workloads))
	}
}

// TestLaneCheckSplit checks the linerate window check: the Count rows
// behind a Distinct are the only gated rows, a single lane fed the same
// window in another per-flow order matches the order-invariant digest,
// and one changed register in an order-invariant row is caught.
func TestLaneCheckSplit(t *testing.T) {
	in := lineTrace(5, true)
	ref, err := lineReference(in)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := buildLineNet(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.setPass(0)
	var reordered []*packet.Packet
	for w := range in.windows {
		// Each flow's packets keep their order; flows are regrouped.
		lo, hi := in.windows[w][0], in.windows[w][1]
		reordered = reordered[:0]
		for lane := uint64(0); lane < 2; lane++ {
			for _, p := range in.pkts[lo:hi] {
				if p.Flow().LaneHash()%2 == lane {
					reordered = append(reordered, p)
				}
			}
		}
		ln.net.DeliverBatch(reordered, ln.h1, ln.h2)
		ln.sink = ln.net.DrainReportsAppend(ln.sink[:0])
		exact, gated := splitBanks(ln.node.Eng.SnapshotBanks())
		if got := bankDigest(exact); got != ref[w].banks {
			t.Errorf("window %d: order-invariant banks differ after reordering", w)
		}
		// Q2, Q3, Q4, Q5 and Q8 count behind a Distinct.
		for _, b := range gated {
			if b.Kind != modules.BankCMSRow || !map[int]bool{2: true, 3: true, 4: true, 5: true, 8: true}[b.QueryID] {
				t.Errorf("gated row qid %d branch %d row %d kind %v", b.QueryID, b.Branch, b.Row, b.Kind)
			}
		}
		if w == 0 {
			if len(gated) == 0 {
				t.Fatal("no Distinct-gated rows found")
			}
			exact[0].Values[0]++
			if bankDigest(exact) == ref[w].banks {
				t.Error("a changed register did not change the digest")
			}
		}
	}
}
