package orchestrator

import (
	"sync/atomic"

	"github.com/newton-net/newton/internal/obs"
)

// orchObs counts the orchestrator's planning and apply activity. The
// zero value counts silently; RegisterObs makes it visible.
type orchObs struct {
	plans      uint64
	planHits   uint64
	admissions uint64
	rejections uint64
	deltas     uint64
	resizes    uint64
}

func (o *orchObs) inc(p *uint64) { atomic.AddUint64(p, 1) }

// RegisterObs exposes plan/cache-hit/admission/rejection/delta counters
// in reg.
func (o *Orchestrator) RegisterObs(reg *obs.Registry) {
	load := func(p *uint64) func() uint64 {
		return func() uint64 { return atomic.LoadUint64(p) }
	}
	reg.CounterFunc("newton_orch_plans_total",
		"Network-wide plan recomputations, run when intents, drains, budgets, width caps or the topology changed.",
		load(&o.obs.plans))
	reg.CounterFunc("newton_orch_plan_cache_hits_total",
		"Plan calls answered from the cached fleet plan; only the diff against the deployment was recomputed.",
		load(&o.obs.planHits))
	reg.CounterFunc("newton_orch_admissions_total",
		"Per-plan intent admissions.", load(&o.obs.admissions))
	reg.CounterFunc("newton_orch_rejections_total",
		"Per-plan intent rejections.", load(&o.obs.rejections))
	reg.CounterFunc("newton_orch_deltas_applied_total",
		"Deployment deltas committed by Apply.", load(&o.obs.deltas))
	reg.CounterFunc("newton_orch_resizes_total",
		"In-place width resizes committed by Apply.", load(&o.obs.resizes))
}
