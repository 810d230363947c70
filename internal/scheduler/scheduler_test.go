package scheduler

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

func allRequests(prio func(i int) int) []Request {
	qs := query.All()
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Query: q, Priority: prio(i)}
	}
	return reqs
}

func TestPlanAdmitsEverythingWithAmpleBudget(t *testing.T) {
	b := Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024}
	ds := Plan(allRequests(func(i int) int { return 1 }), b)
	for i, d := range ds {
		if !d.Admitted {
			t.Errorf("Q%d rejected under ample budget: %s", i+1, d.Reason)
		}
		if d.Width != 4096 {
			t.Errorf("Q%d degraded to %d despite ample budget", i+1, d.Width)
		}
	}
}

func TestPlanDegradesWidthUnderRegisterPressure(t *testing.T) {
	// Banks too small for everyone at 4096: at least one lower-priority
	// query survives by taking a narrower sketch instead of rejection.
	b := Budget{Stages: 16, ArraySize: 10240, RulesPerModule: 1024}
	ds := Plan(allRequests(func(i int) int { return 9 - i }), b)
	admitted, degraded := 0, 0
	for _, d := range ds {
		if d.Admitted {
			admitted++
			if d.Width < 4096 {
				degraded++
			}
		}
	}
	if admitted < 3 {
		t.Errorf("only %d admitted under register pressure", admitted)
	}
	if degraded == 0 {
		t.Error("nothing degraded despite register pressure")
	}
	// More registers admit more queries (monotone in budget).
	ds2 := Plan(allRequests(func(i int) int { return 9 - i }), Budget{Stages: 16, ArraySize: 1 << 16, RulesPerModule: 1024})
	admitted2 := 0
	for _, d := range ds2 {
		if d.Admitted {
			admitted2++
		}
	}
	if admitted2 <= admitted {
		t.Errorf("bigger banks admitted %d <= %d", admitted2, admitted)
	}
	// The highest-priority query keeps the full width.
	if !ds[0].Admitted || ds[0].Width != 4096 {
		t.Errorf("top-priority query got %+v", ds[0])
	}
}

func TestPlanRespectsPriorityOrder(t *testing.T) {
	// Give Q6 (the largest) top priority under a tight budget: it must
	// be considered first and admitted.
	b := Budget{Stages: 16, ArraySize: 8192, RulesPerModule: 1024}
	prio := func(i int) int {
		if i == 5 {
			return 100
		}
		return 1
	}
	ds := Plan(allRequests(prio), b)
	if !ds[5].Admitted {
		t.Fatalf("top-priority Q6 rejected: %s", ds[5].Reason)
	}
}

func TestPlanRejectsOnStages(t *testing.T) {
	b := Budget{Stages: 6, ArraySize: 1 << 20, RulesPerModule: 1024}
	ds := Plan(allRequests(func(i int) int { return 1 }), b)
	if !ds[0].Admitted { // Q1 fits 6 stages
		t.Errorf("Q1 rejected: %s", ds[0].Reason)
	}
	if ds[5].Admitted { // Q6 needs ~10 stages
		t.Error("Q6 admitted into a 6-stage device")
	}
	if !strings.Contains(ds[5].Reason, "stages") {
		t.Errorf("rejection reason unhelpful: %q", ds[5].Reason)
	}
}

func TestPlanIsSound(t *testing.T) {
	// Whatever the plan admits must actually install into a real engine
	// with exactly the planned budget.
	b := Budget{Stages: 16, ArraySize: 16384, RulesPerModule: 256}
	ds := Plan(allRequests(func(i int) int { return 9 - i }), b)
	layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(ds, modules.NewEngine(layout)); err != nil {
		t.Fatalf("plan unsound: %v", err)
	}
	admitted := 0
	for _, d := range ds {
		if d.Admitted {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted — soundness vacuous")
	}
}

func TestPlanDefaultsAndSummary(t *testing.T) {
	ds := Plan(allRequests(func(i int) int { return 1 }), Budget{})
	s := Summary(ds)
	if !strings.Contains(s, "q1_new_tcp_connections") {
		t.Error("summary missing rows")
	}
	anyAdmitted := false
	for _, d := range ds {
		if d.Admitted {
			anyAdmitted = true
		}
	}
	if !anyAdmitted {
		t.Error("default budget admits nothing")
	}
}

func TestPlanWidthLadderBounds(t *testing.T) {
	reqs := []Request{{Query: query.Q1(40), Priority: 1, MinWidth: 2048, MaxWidth: 2048}}
	// Bank smaller than the only acceptable width: reject, don't degrade
	// below MinWidth.
	b := Budget{Stages: 16, ArraySize: 2047, RulesPerModule: 256}
	ds := Plan(reqs, b)
	if ds[0].Admitted {
		t.Error("admitted below the request's minimum width")
	}
	if ds[0].Reason == "" {
		t.Error("missing rejection reason")
	}
}

func TestPlanRejectsOnRuleCapacity(t *testing.T) {
	// The same query over and over stacks rules into the same module
	// tables; a tiny per-table capacity must eventually reject, and the
	// reason must say so (width degradation cannot fix rule pressure).
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{Query: query.Q1(40), Priority: 1})
	}
	b := Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 8}
	ds := Plan(reqs, b)
	admitted, rejected := 0, 0
	for _, d := range ds {
		if d.Admitted {
			admitted++
			continue
		}
		rejected++
		if !strings.Contains(d.Reason, "rule capacity") {
			t.Fatalf("rejection reason %q, want rule-capacity mention", d.Reason)
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted — capacity test vacuous")
	}
	if rejected == 0 {
		t.Fatal("40 copies all fit into 8 rules per table — no rejection exercised")
	}
}

func TestApplyUnsoundPlan(t *testing.T) {
	// A plan made for a big device must fail loudly when applied to a
	// smaller one, rather than half-installing.
	b := Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024}
	ds := Plan([]Request{{Query: query.Q1(40), Priority: 1}}, b)
	if !ds[0].Admitted {
		t.Fatalf("Q1 rejected under ample budget: %s", ds[0].Reason)
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	err = Apply(ds, modules.NewEngine(layout))
	if err == nil {
		t.Fatal("Apply succeeded on a device 1/2048th the planned size")
	}
	if !strings.Contains(err.Error(), "plan unsound") {
		t.Fatalf("Apply error %q, want 'plan unsound'", err)
	}
}

func TestWidthLadderRungs(t *testing.T) {
	// The pre-fix ladder halved from MaxWidth and stopped above MinWidth,
	// so MinWidth was only ever tried when it was exactly MaxWidth/2^k —
	// Min=300/Max=400 tried only 400 — and non-power-of-two MaxWidths
	// cascaded into non-power-of-two intermediate rungs.
	cases := []struct {
		name       string
		min, max   uint32
		want       []uint32
		wantErrSub string
	}{
		{name: "skipped rung: min not on the halving chain", min: 300, max: 400, want: []uint32{400, 300}},
		{name: "pow2 bounds walk the full chain", min: 256, max: 4096, want: []uint32{4096, 2048, 1024, 512, 256}},
		{name: "non-pow2 min gets a final attempt", min: 300, max: 2048, want: []uint32{2048, 1024, 512, 300}},
		{name: "non-pow2 max steps down to powers of two", min: 256, max: 1000, want: []uint32{1000, 512, 256}},
		{name: "equal bounds: single rung", min: 2048, max: 2048, want: []uint32{2048}},
		{name: "adjacent: max then min", min: 512, max: 1024, want: []uint32{1024, 512}},
		{name: "defaults applied", min: 0, max: 0, want: []uint32{4096, 2048, 1024, 512, 256}},
		{name: "inverted bounds rejected", min: 1024, max: 512, wantErrSub: "inverted width bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := WidthLadder(tc.min, tc.max)
			if tc.wantErrSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErrSub) {
					t.Fatalf("err = %v, want %q", err, tc.wantErrSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ladder = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ladder = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestPlanTriesMinWidthOffTheHalvingChain(t *testing.T) {
	// Min=300/Max=400 with banks that fit 300 but not 400: the pre-fix
	// ladder never tried 300 and rejected outright.
	reqs := []Request{{Query: query.Q1(40), Priority: 1, MinWidth: 300, MaxWidth: 400}}
	b := Budget{Stages: 16, ArraySize: 350, RulesPerModule: 256}
	ds := Plan(reqs, b)
	if !ds[0].Admitted {
		t.Fatalf("rejected despite MinWidth fitting: %s", ds[0].Reason)
	}
	if ds[0].Width != 300 {
		t.Fatalf("width = %d, want the MinWidth rung 300", ds[0].Width)
	}
	if !strings.Contains(ds[0].Reason, "degraded") {
		t.Errorf("degradation not surfaced: %q", ds[0].Reason)
	}
}

func TestPlanRejectsInvertedBoundsWithReason(t *testing.T) {
	reqs := []Request{{Query: query.Q1(40), Priority: 1, MinWidth: 1024, MaxWidth: 300}}
	ds := Plan(reqs, Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024})
	if ds[0].Admitted {
		t.Fatal("admitted with MaxWidth < MinWidth")
	}
	if !strings.Contains(ds[0].Reason, "inverted width bounds") {
		t.Fatalf("reason = %q, want an explicit inverted-bounds rejection", ds[0].Reason)
	}
}

func TestInitCapacityMatchesEngineTable(t *testing.T) {
	// The planner's newton_init accounting must mirror the allocator it
	// models: the engine's actual classifier capacity, not a drifting
	// hardcoded multiple.
	layout, err := modules.NewLayout(modules.LayoutCompact, 12, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DefaultBudget().InitCapacity(), layout.Init.MaxEntries; got != want {
		t.Fatalf("scheduler init capacity %d != engine newton_init capacity %d", got, want)
	}
	b := Budget{Stages: 12, ArraySize: 4096, RulesPerModule: modules.DefaultRulesPerModule * 2}
	if got, want := b.InitCapacity(), b.RulesPerModule*modules.InitCapacityFactor; got != want {
		t.Fatalf("InitCapacity %d does not scale with the budget's rule capacity (want %d)", got, want)
	}
}

func TestPlanClassifierPredCapacity(t *testing.T) {
	// Measure one query's distinct predicate population from an ample
	// plan, then re-plan against exactly that cap: two identical queries
	// share every predicate, so both must fit — the tracker charges
	// distinct predicates, not entries.
	ample := Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 1024}
	ds := Plan([]Request{{Query: query.Q1(40), Priority: 1}}, ample)
	if !ds[0].Admitted {
		t.Fatalf("Q1 rejected under ample budget: %s", ds[0].Reason)
	}
	nPreds := ds[0].Program.Footprint().ClassifierPreds
	if nPreds == 0 {
		t.Fatal("Q1 contributes no classifier predicates — capacity test vacuous")
	}

	exact := ample
	exact.ClassifierPreds = nPreds
	ds = Plan([]Request{
		{Query: query.Q1(40), Priority: 2},
		{Query: query.Q1(40), Priority: 1},
	}, exact)
	for i, d := range ds {
		if !d.Admitted {
			t.Fatalf("copy %d rejected at exact predicate cap (%s) — dedupe broken", i, d.Reason)
		}
	}

	tight := ample
	tight.ClassifierPreds = nPreds - 1
	ds = Plan([]Request{{Query: query.Q1(40), Priority: 1}}, tight)
	if ds[0].Admitted {
		t.Fatal("Q1 admitted past the predicate cap")
	}
	if !strings.Contains(ds[0].Reason, "predicate capacity") {
		t.Fatalf("rejection reason %q, want predicate-capacity mention", ds[0].Reason)
	}
}

// TestFootprintMatchesProgramAndSequentialCommits pins the flattened
// footprint against modules' own resource count, and a summed footprint
// against committing its parts one at a time: at every budget the
// verdict, and on admission the accounting left behind, must match.
func TestFootprintMatchesProgramAndSequentialCommits(t *testing.T) {
	var parts []*modules.Program
	for _, q := range query.All() {
		o := compiler.AllOpts()
		o.Width = 512
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		f, mf := NewFootprint(p), p.Footprint()
		regs := 0
		for _, u := range f.regs {
			regs += u.n
		}
		rules := 0
		for _, u := range f.rules {
			rules += u.n
		}
		if f.Stages() != p.NumStages() || regs != int(mf.Registers) || rules != mf.Rules ||
			f.branches != mf.InitRules || len(f.preds) != mf.ClassifierPreds {
			t.Fatalf("%s: footprint stages=%d regs=%d rules=%d branches=%d preds=%d, program %+v",
				q.Name, f.Stages(), regs, rules, f.branches, len(f.preds), mf)
		}
		if sliced, err := modules.SliceProgram(p, 3); err == nil {
			parts = append(parts, sliced...)
		}
	}

	rng := rand.New(rand.NewSource(3))
	admitted := 0
	for trial := 0; trial < 400; trial++ {
		b := Budget{Stages: 4 + rng.Intn(3), ArraySize: uint32(256 << rng.Intn(5)),
			RulesPerModule: 1 + rng.Intn(6), ClassifierPreds: 1 + rng.Intn(30)}
		seq, sum := NewTracker(b), NewTracker(b)
		pre := parts[rng.Intn(len(parts))]
		seq.Commit(pre)
		sum.Commit(pre)

		batch := make([]*Footprint, 1+rng.Intn(4))
		seqOK := true
		for i := range batch {
			p := parts[rng.Intn(len(parts))]
			batch[i] = NewFootprint(p)
			if seqOK {
				if seqOK, _ = seq.Fits(p); seqOK {
					seq.Commit(p)
				}
			}
		}
		total := SumFootprints(batch...)
		ok, why := sum.FitsFootprint(total)
		if ok != seqOK {
			t.Fatalf("trial %d: summed verdict %v (%s), sequential %v", trial, ok, why, seqOK)
		}
		if !ok {
			continue
		}
		admitted++
		if allocs := testing.AllocsPerRun(10, func() { sum.FitsFootprint(total) }); allocs != 0 {
			t.Fatalf("FitsFootprint allocates %.0f times per admitting call", allocs)
		}
		sum.CommitFootprint(total)
		if !reflect.DeepEqual(seq, sum) {
			t.Fatalf("trial %d: summed commit left different accounting than sequential commits", trial)
		}
	}
	if admitted < 40 || admitted > 360 {
		t.Fatalf("%d of 400 trials admitted: budgets do not exercise both verdicts", admitted)
	}
}
