package orchestrator

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

// planUncached is the oracle: a full recompute with no plan cache and no
// memo, diffed against the same deployment record.
func (o *Orchestrator) planUncached() (*Plan, Diff, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, err := o.recompute(nil)
	if err != nil {
		return nil, Diff{}, err
	}
	return p, o.diff(p), nil
}

// agentFleet starts one agent per switch of topo, over in-memory pipes,
// each with an 8-stage engine, and returns the remote controller and the
// budgets matching the engines.
func agentFleet(t testing.TB, topo *topology.Topology) (*controller.Remote, map[string]scheduler.Budget) {
	t.Helper()
	clients := map[string]*rpc.Client{}
	budgets := map[string]scheduler.Budget{}
	for _, id := range topo.Switches() {
		name := topo.Node(id).Name
		layout, err := modules.NewLayout(modules.LayoutCompact, 8, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		eng := modules.NewEngine(layout)
		sw := dataplane.NewSwitch(name, 8, modules.StageCapacity())
		sw.Monitor = eng
		agent := rpc.NewAgent(sw, eng)
		server, client := net.Pipe()
		go agent.HandleConn(server)
		c := rpc.NewClient(client)
		t.Cleanup(func() { c.Close() })
		clients[name] = c
		budgets[name] = scheduler.Budget{Stages: 8, ArraySize: 1 << 14, RulesPerModule: 256}
	}
	return controller.NewRemote(clients, 1), budgets
}

// podEdges lists each fat-tree pod's edge switch names.
func podEdges(k int) [][]string {
	var out [][]string
	for p := 0; p < k; p++ {
		var edges []string
		for i := 0; i < k/2; i++ {
			edges = append(edges, fmt.Sprintf("edge%d_%d", p, i))
		}
		out = append(out, edges)
	}
	return out
}

// tenantIntents builds fresh per-tenant copies of catalog queries: pair
// (t, q) monitors pod t's edges with catalog query q.
func tenantIntents(pods [][]string, pairs [][2]int, maxWidth uint32) []Intent {
	cat := query.All()
	out := make([]Intent, 0, len(pairs))
	for _, pr := range pairs {
		cp := *cat[pr[1]]
		cp.Name = fmt.Sprintf("t%d/%s", pr[0], cp.Name)
		out = append(out, Intent{Query: &cp, Priority: 100 - pr[1], Edges: pods[pr[0]], MaxWidth: maxWidth})
	}
	return out
}

func TestPlanCacheMatchesUncachedOracle(t *testing.T) {
	topo := topology.FatTree(4)
	remote, budgets := agentFleet(t, topo)
	o, err := New(Config{Topo: topo, Budgets: budgets}, remote)
	if err != nil {
		t.Fatal(err)
	}
	pods := podEdges(4)
	names := o.Switches()
	var fabric [][2]int // switch-to-switch links
	for _, a := range topo.Switches() {
		for _, b := range topo.SwitchNeighbors(a) {
			if a < b {
				fabric = append(fabric, [2]int{a, b})
			}
		}
	}
	down := map[[2]int]bool{}
	budgetChoices := []scheduler.Budget{
		{Stages: 8, ArraySize: 1 << 14, RulesPerModule: 256},
		{Stages: 8, ArraySize: 2048, RulesPerModule: 256},
		{Stages: 8, ArraySize: 1 << 14, RulesPerModule: 6},
		{Stages: 7, ArraySize: 4096, RulesPerModule: 256},
	}
	rng := rand.New(rand.NewSource(20))
	var intents []Intent
	setIntents := func() {
		var pairs [][2]int
		for t := range pods {
			for q := range query.All() {
				if rng.Intn(3) == 0 {
					pairs = append(pairs, [2]int{t, q})
				}
			}
		}
		intents = tenantIntents(pods, pairs, []uint32{0, 1024, 512}[rng.Intn(3)])
		for i := range intents {
			if rng.Intn(4) == 0 {
				intents[i].Accuracy = query.Accuracy{MaxRelErr: 0.05}
			}
		}
		o.SetIntents(intents)
	}
	setIntents()

	applied := 0
	for step := 0; step < 400; step++ {
		var what string
		switch op := rng.Intn(7); op {
		case 0:
			what = "SetIntents"
			setIntents()
		case 1:
			name := names[rng.Intn(len(names))]
			what = "Drain " + name
			o.Drain(name)
		case 2:
			name := names[rng.Intn(len(names))]
			what = "Undrain " + name
			o.Undrain(name)
		case 3:
			name := names[rng.Intn(len(names))]
			b := budgetChoices[rng.Intn(len(budgetChoices))]
			what = fmt.Sprintf("SetBudget %s %+v", name, b)
			o.SetBudget(name, b)
		case 4:
			if len(intents) == 0 {
				continue
			}
			name := intents[rng.Intn(len(intents))].Query.Name
			w := []uint32{0, 256, 512, 1024}[rng.Intn(4)]
			what = fmt.Sprintf("SetWidthCap %s %d", name, w)
			o.SetWidthCap(name, w)
		case 5:
			l := fabric[rng.Intn(len(fabric))]
			down[l] = !down[l]
			what = fmt.Sprintf("SetLink %v up=%v", l, !down[l])
			topo.SetLink(l[0], l[1], !down[l])
		case 6:
			what = "Apply"
			if p, d, err := o.Plan(); err == nil {
				if err := o.Apply(p, d); err != nil {
					t.Errorf("step %d: apply: %v", step, err)
				} else {
					applied++
				}
			}
		}

		p, d, err := o.Plan()
		wantP, wantD, wantErr := o.planUncached()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("step %d (%s): cached err %v, oracle %v", step, what, err, wantErr)
		}
		if !reflect.DeepEqual(p, wantP) {
			t.Fatalf("step %d (%s): cached plan differs from the oracle\ncached:\n%soracle:\n%s", step, what, summary(p), summary(wantP))
		}
		if !reflect.DeepEqual(d, wantD) {
			t.Fatalf("step %d (%s): cached diff differs from the oracle\ncached:\n%soracle:\n%s", step, what, d, wantD)
		}
		if again, _, _ := o.Plan(); again != p {
			t.Fatalf("step %d (%s): an unchanged fleet recomputed its plan", step, what)
		}
		if p != nil {
			auditPlan(t, o, p)
		}
	}
	if applied < 10 {
		t.Fatalf("only %d applies ran: the sequence does not exercise diffs against a deployment", applied)
	}
}

// auditPlan recompiles every admitted query and charges its programs,
// one partition at a time, to fresh per-switch trackers: an independent
// check, sharing no memo or footprint summing with the planner, that a
// plan never promises a switch more than its budget holds.
func auditPlan(t *testing.T, o *Orchestrator, p *Plan) {
	t.Helper()
	trackers := map[string]*scheduler.Tracker{}
	for name, b := range o.cfg.Budgets {
		trackers[name] = scheduler.NewTracker(b)
	}
	for _, qp := range p.Queries {
		if !qp.Admitted {
			continue
		}
		charge := func(name string, prog *modules.Program) {
			if ok, why := trackers[name].Fits(prog); !ok {
				t.Fatalf("plan overcommits %s with %s: %s", name, prog.Name, why)
			}
			trackers[name].Commit(prog)
		}
		opts := compiler.AllOpts()
		opts.QID, opts.Width = 1, qp.Width
		prog, err := compiler.Compile(qp.Intent.Query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if qp.Single {
			for i, name := range qp.Targets {
				if i == 0 || name != qp.Targets[i-1] {
					charge(name, prog)
				}
			}
			continue
		}
		parts, err := modules.SliceProgram(prog, p.StagesPer)
		if err != nil {
			t.Fatal(err)
		}
		for name, idxs := range qp.Parts {
			for _, k := range idxs {
				charge(name, parts[k])
			}
		}
	}
}

func summary(p *Plan) string {
	if p == nil {
		return "<nil>\n"
	}
	return Summary(p)
}

// TestShapeKeyCoversEveryCompileInput mutates every field compilation
// reads, one at a time, and requires the memo key to change; renaming or
// redescribing a query must not change it. Fields are enumerated by
// reflection, so a field added to these types later is covered too.
func TestShapeKeyCoversEveryCompileInput(t *testing.T) {
	base := func() *query.Query {
		q := cloneQuery(query.Q6(40)) // three branches and a linear merge
		q.Branches[0].Prims = append(q.Branches[0].Prims, query.Primitive{
			Kind: query.KindFilter, Preds: []query.Predicate{query.MaskEq(fields.SrcIP, 0xff00, 0x0a00)}})
		return q
	}
	opts := compiler.AllOpts()
	opts.Width = 512
	key := func(q *query.Query, o compiler.Options) string {
		return string(appendShapeKey(nil, q, o, 6))
	}
	want := key(base(), opts)

	check := func(what string, mutate func(q *query.Query) reflect.Value, same bool) {
		t.Helper()
		q := base()
		mutate(q)
		if got := key(q, opts); (got == want) != same {
			t.Errorf("mutating %s: key unchanged=%v, want %v", what, got == want, same)
		}
	}
	eachField := func(typ reflect.Type, path string, at func(q *query.Query) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			same := f.Name == "Name" || f.Name == "Description"
			check(path+"."+f.Name, func(q *query.Query) reflect.Value {
				v := at(q).Field(i)
				mutateValue(t, v)
				return v
			}, same)
		}
	}
	eachField(reflect.TypeOf(query.Query{}), "Query", func(q *query.Query) reflect.Value { return reflect.ValueOf(q).Elem() })
	eachField(reflect.TypeOf(query.Primitive{}), "Primitive", func(q *query.Query) reflect.Value {
		return reflect.ValueOf(&q.Branches[0].Prims[0]).Elem()
	})
	eachField(reflect.TypeOf(query.Predicate{}), "Predicate", func(q *query.Query) reflect.Value {
		prims := q.Branches[0].Prims
		return reflect.ValueOf(&prims[len(prims)-1].Preds[0]).Elem()
	})
	eachField(reflect.TypeOf(query.Merge{}), "Merge", func(q *query.Query) reflect.Value { return reflect.ValueOf(q.Merge).Elem() })
	check("Query.Merge=nil", func(q *query.Query) reflect.Value { q.Merge = nil; return reflect.Value{} }, false)

	ot := reflect.TypeOf(compiler.Options{})
	for i := 0; i < ot.NumField(); i++ {
		o := opts
		mutateValue(t, reflect.ValueOf(&o).Elem().Field(i))
		if key(base(), o) == want {
			t.Errorf("mutating Options.%s left the key unchanged", ot.Field(i).Name)
		}
	}
	if string(appendShapeKey(nil, base(), opts, 5)) == want {
		t.Error("changing the partition size left the key unchanged")
	}
}

// mutateValue changes v to a different value of its type.
func mutateValue(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Array:
		mutateValue(t, v.Index(v.Len()-1))
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	default:
		t.Fatalf("no mutation for kind %v (%v)", v.Kind(), v.Type())
	}
}

// cloneQuery deep-copies a query, so mutations never reach the catalog.
func cloneQuery(q *query.Query) *query.Query {
	cp := *q
	cp.Branches = make([]query.Branch, len(q.Branches))
	for i, b := range q.Branches {
		cp.Branches[i].Prims = make([]query.Primitive, len(b.Prims))
		for j, pr := range b.Prims {
			pr.Preds = append([]query.Predicate(nil), pr.Preds...)
			cp.Branches[i].Prims[j] = pr
		}
	}
	if q.Merge != nil {
		m := *q.Merge
		m.Coeffs = append([]int64(nil), m.Coeffs...)
		cp.Merge = &m
	}
	return &cp
}

// TestMemoBoundedByIntentShapes churns 1000 intent sets whose query
// shapes come and go, and requires the memo never to hold more compiled
// programs than the current set's distinct (shape, rung) pairs.
func TestMemoBoundedByIntentShapes(t *testing.T) {
	topo := topology.FatTree(4)
	budgets := map[string]scheduler.Budget{}
	for _, id := range topo.Switches() {
		budgets[topo.Node(id).Name] = scheduler.Budget{Stages: 8, ArraySize: 1 << 14, RulesPerModule: 256}
	}
	o, err := New(Config{Topo: topo, Budgets: budgets}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pods := podEdges(4)
	rng := rand.New(rand.NewSource(5))
	ever := map[string]bool{}
	maxBound := 0
	for churn := 0; churn < 1000; churn++ {
		var intents []Intent
		for i := 0; i < 4+rng.Intn(6); i++ {
			// Thresholds drawn from a range make shapes enter and leave.
			q := []*query.Query{query.Q1(uint64(10 + rng.Intn(30))), query.Q4(uint64(10 + rng.Intn(30)))}[rng.Intn(2)]
			q.Name = fmt.Sprintf("i%d", i)
			intents = append(intents, Intent{Query: q, Priority: rng.Intn(3), MaxWidth: 1024,
				Edges: pods[rng.Intn(len(pods))]})
		}
		o.SetIntents(intents)
		if _, _, err := o.Plan(); err != nil {
			t.Fatal(err)
		}

		pairs := map[string]bool{}
		stagesPer := o.plan.StagesPer
		for _, in := range intents {
			ladder, _ := scheduler.WidthLadder(in.MinWidth, in.MaxWidth)
			for _, w := range ladder {
				opts := compiler.AllOpts()
				opts.QID, opts.Width = 1, w
				k := string(appendShapeKey(nil, in.Query, opts, stagesPer))
				pairs[k] = true
				ever[k] = true
			}
		}
		if len(o.memo.progs) > len(pairs) {
			t.Fatalf("churn %d: memo holds %d programs, intent set has %d (shape, rung) pairs",
				churn, len(o.memo.progs), len(pairs))
		}
		if len(o.memo.places) > len(intents)*4 {
			t.Fatalf("churn %d: memo holds %d placements for %d intents", churn, len(o.memo.places), len(intents))
		}
		maxBound = max(maxBound, len(pairs))
	}
	if len(ever) <= maxBound {
		t.Fatalf("only %d distinct (shape, rung) pairs over the churn, bound %d: nothing to sweep", len(ever), maxBound)
	}
}

// TestPlanApplySnapshotIsOneRecompute checks the counters: a plan, its
// apply and an operator status read cost one recompute and one cache
// hit, and a change costs one more recompute.
func TestPlanApplySnapshotIsOneRecompute(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	reg := obs.NewRegistry()
	o.RegisterObs(reg)
	counters := func() (plans, hits float64) {
		s := reg.Snapshot()
		return s.Find("newton_orch_plans_total").Value, s.Find("newton_orch_plan_cache_hits_total").Value
	}
	mon, err := NewMonitor(o, o.Switches(), HealthConfig{Probe: func(string) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	o.SetIntents([]Intent{
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})

	p, d, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Apply(p, d); err != nil {
		t.Fatal(err)
	}
	if fh := mon.Snapshot(); fh.PlanErr != "" || fh.PendingDeltas != 0 {
		t.Fatalf("status after apply: plan err %q, %d pending deltas", fh.PlanErr, fh.PendingDeltas)
	}
	if plans, hits := counters(); plans != 1 || hits != 1 {
		t.Fatalf("plan, apply, status: %v recomputes and %v cache hits, want 1 and 1", plans, hits)
	}

	o.Drain("s3")
	if fh := mon.Snapshot(); fh.PendingDeltas != 0 {
		t.Fatalf("draining an idle switch left %d pending deltas", fh.PendingDeltas)
	}
	if plans, hits := counters(); plans != 2 || hits != 1 {
		t.Fatalf("after a drain: %v recomputes and %v cache hits, want 2 and 1", plans, hits)
	}
}

func TestNewCopiesBudgets(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	o.SetIntents([]Intent{
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	before, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// A budget that cannot hold any rung: were the map shared, the next
	// plan would reject the intent.
	tiny := scheduler.Budget{Stages: 8, ArraySize: 64, RulesPerModule: 256}
	f.budgets["s1"] = tiny
	delete(f.budgets, "s2")
	o.SetIntents(o.Intents()) // force a recompute
	after, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) || !after.Queries[0].Admitted {
		t.Fatalf("editing the caller's budget map changed the plan:\nbefore:\n%safter:\n%s", Summary(before), Summary(after))
	}

	o.SetBudget("s3", tiny)
	if _, ok := f.budgets["s3"]; ok && f.budgets["s3"] == tiny {
		t.Fatal("SetBudget wrote into the caller's map")
	}
	o.SetBudget("s1", tiny)
	if p, _, _ := o.Plan(); p.Queries[0].Admitted {
		t.Fatal("SetBudget did not reach the plan")
	}
}

// BenchmarkPlan times Plan on fat-tree fleets of 20, 80 and 180
// switches, with two catalog intents per pod: cold is the first Plan
// after SetIntents (a full recompute over a warm memo), warm a Plan with
// nothing changed (the cached plan and a fresh diff).
func BenchmarkPlan(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		topo := topology.FatTree(k)
		budgets := map[string]scheduler.Budget{}
		for _, id := range topo.Switches() {
			budgets[topo.Node(id).Name] = scheduler.Budget{Stages: 10, ArraySize: 1 << 14, RulesPerModule: 256}
		}
		o, err := New(Config{Topo: topo, Budgets: budgets}, nil)
		if err != nil {
			b.Fatal(err)
		}
		pods := podEdges(k)
		var pairs [][2]int
		for p := range pods {
			for _, q := range []int{p % 9, (p + 4) % 9} {
				pairs = append(pairs, [2]int{p, q})
			}
		}
		intents := tenantIntents(pods, pairs, 1024)
		o.SetIntents(intents)
		if _, _, err := o.Plan(); err != nil {
			b.Fatal(err)
		}
		switches := len(budgets)
		b.Run(fmt.Sprintf("cold/switches=%d", switches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.SetIntents(intents)
				if _, _, err := o.Plan(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/switches=%d", switches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := o.Plan(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
