package modules

import (
	"fmt"
	"slices"
	"sort"

	"github.com/newton-net/newton/internal/dataplane"
)

// LayoutKind selects how module suites map onto physical stages.
type LayoutKind int

const (
	// LayoutNaive places one module per stage (§4.2's strawman): a suite
	// spreads over four stages and each stage uses only that module
	// kind's resource types.
	LayoutNaive LayoutKind = iota
	// LayoutCompact places two full suites — one per metadata set — in
	// every stage, the paper's compact module layout.
	LayoutCompact
)

// String names the layout.
func (k LayoutKind) String() string {
	if k == LayoutCompact {
		return "compact"
	}
	return "naive"
}

// SuitesPerStage returns how many metadata-set suites a stage hosts.
func (k LayoutKind) SuitesPerStage() int {
	if k == LayoutCompact {
		return 2
	}
	return 1
}

// InitCapacityFactor sizes the newton_init classifier relative to a
// module table: the classifier holds one entry per branch of every
// installed query across all stages, so it gets this multiple of a
// single module table's rule capacity. The scheduler's admission
// accounting mirrors the same factor — keep them in lockstep.
const InitCapacityFactor = 4

// DefaultRulesPerModule is the rule capacity each module table is
// configured with in the evaluation ("we configure each module to
// accommodate 256 rules", §6.2).
const DefaultRulesPerModule = 256

// ModuleResources returns the per-stage resource consumption of one
// module instance (table + logic, sized for DefaultRulesPerModule
// rules), in the simulator's abstract units. The values are calibrated
// so that, normalized by SwitchP4Usage, they reproduce the per-module
// rows of the paper's Table 3.
func ModuleResources(k Kind) dataplane.Resources {
	switch k {
	case ModK:
		return dataplane.Resources{
			dataplane.Crossbar: 4, dataplane.SRAM: 8, dataplane.VLIW: 10,
			dataplane.HashBits: 20, dataplane.Gateway: 1,
		}
	case ModH:
		return dataplane.Resources{
			dataplane.Crossbar: 44, dataplane.SRAM: 4, dataplane.VLIW: 2,
			dataplane.HashBits: 29,
		}
	case ModS:
		return dataplane.Resources{
			dataplane.Crossbar: 20, dataplane.SRAM: 40, dataplane.TCAM: 4,
			dataplane.VLIW: 6, dataplane.HashBits: 40, dataplane.SALU: 1,
		}
	case ModR:
		return dataplane.Resources{
			dataplane.Crossbar: 10, dataplane.SRAM: 4, dataplane.TCAM: 8,
			dataplane.VLIW: 30,
		}
	}
	panic(fmt.Sprintf("modules: unknown module kind %d", k))
}

// SuiteResources is the consumption of one full K+H+S+R suite.
func SuiteResources() dataplane.Resources {
	var r dataplane.Resources
	for k := Kind(0); k < NumKinds; k++ {
		r.Add(ModuleResources(k))
	}
	return r
}

// SwitchP4Usage is the total resource usage of the switch.p4 reference
// program in the same abstract units — the normalization base of
// Table 3.
func SwitchP4Usage() dataplane.Resources {
	return dataplane.Resources{
		dataplane.Crossbar: 1646, dataplane.SRAM: 1136, dataplane.TCAM: 186,
		dataplane.VLIW: 284, dataplane.HashBits: 1818, dataplane.SALU: 18,
		dataplane.Gateway: 70,
	}
}

// StageCapacity is the per-stage budget used for Newton pipelines: large
// enough for two full suites (the compact layout) with headroom for the
// forwarding tables that share the pipeline.
func StageCapacity() dataplane.Resources {
	return dataplane.Resources{
		dataplane.Crossbar: 170, dataplane.SRAM: 130, dataplane.TCAM: 26,
		dataplane.VLIW: 100, dataplane.HashBits: 200, dataplane.SALU: 4,
		dataplane.Gateway: 16,
	}
}

// suite is one metadata set's module instances within a stage.
type suite struct {
	tables [NumKinds]*dataplane.Table
	array  *dataplane.RegisterArray

	// free holds the bank's unallocated register runs, sorted by offset
	// and never adjacent: queries allocate first-fit on install and free
	// on removal, and FreeRegisters merges neighbouring runs.
	free []regRun
}

// regRun is a free run of registers [off, off+n) in a state bank.
type regRun struct{ off, n uint32 }

// Layout is the module geometry loaded into a pipeline at initialization
// time. Everything after this — which queries run, with what parameters
// — is table rules.
type Layout struct {
	Kind      LayoutKind
	ArraySize uint32

	pipeline *dataplane.Pipeline
	suites   [][]*suite // [stage][suiteIdx]

	// Init is the newton_init classifier; Fin is the newton_fin result
	// snapshot table (cross-switch execution).
	Init *dataplane.Table
	Fin  *dataplane.Table
}

// NewLayout loads a module layout into a fresh pipeline of the given
// stage count. ArraySize is the register count of each state bank.
func NewLayout(kind LayoutKind, stages int, arraySize uint32) (*Layout, error) {
	if arraySize == 0 {
		arraySize = 4096
	}
	l := &Layout{
		Kind:      kind,
		ArraySize: arraySize,
		pipeline:  dataplane.NewPipeline(stages, StageCapacity()),
		Init:      dataplane.NewTable("newton_init", dataplane.MatchTernary, 6, DefaultRulesPerModule*InitCapacityFactor),
		Fin:       dataplane.NewTable("newton_fin", dataplane.MatchExact, 1, DefaultRulesPerModule),
	}
	for si, st := range l.pipeline.Stages {
		var suites []*suite
		for u := 0; u < kind.SuitesPerStage(); u++ {
			s := &suite{}
			for k := Kind(0); k < NumKinds; k++ {
				if kind == LayoutNaive && Kind(si%int(NumKinds)) != k {
					continue // naive: stage si hosts only module kind si mod 4
				}
				t := dataplane.NewTable(
					fmt.Sprintf("newton_%v_s%d_u%d", k, si, u),
					dataplane.MatchExact, 1, DefaultRulesPerModule)
				var ra *dataplane.RegisterArray
				if k == ModS {
					ra = dataplane.NewRegisterArray(fmt.Sprintf("bank_s%d_u%d", si, u), arraySize)
					s.array = ra
					s.free = []regRun{{0, arraySize}}
				}
				if err := st.Place(t.Name, ModuleResources(k), t, ra); err != nil {
					return nil, fmt.Errorf("modules: loading %v layout: %w", kind, err)
				}
				s.tables[k] = t
			}
			suites = append(suites, s)
		}
		l.suites = append(l.suites, suites)
	}
	return l, nil
}

// Stages returns the number of physical stages.
func (l *Layout) Stages() int { return len(l.suites) }

// Epoch returns the current window epoch of the layout's state banks
// (they all roll together via Pipeline.NextEpoch).
func (l *Layout) Epoch() uint32 {
	for _, ss := range l.suites {
		for _, s := range ss {
			if s.array != nil {
				return s.array.Epoch()
			}
		}
	}
	return 0
}

// Pipeline exposes the underlying pipeline (for resource reports and
// epoch advancement).
func (l *Layout) Pipeline() *dataplane.Pipeline { return l.pipeline }

// ModuleTable returns the table of module kind k in (1-based) stage,
// suite u, or nil if the layout has no such module there.
func (l *Layout) ModuleTable(stage int, u int, k Kind) *dataplane.Table {
	s := l.suiteAt(stage, u)
	if s == nil {
		return nil
	}
	return s.tables[k]
}

func (l *Layout) suiteAt(stage, u int) *suite {
	if stage < 1 || stage > len(l.suites) {
		return nil
	}
	ss := l.suites[stage-1]
	if u < 0 || u >= len(ss) {
		return nil
	}
	return ss[u]
}

// ArrayAt returns the state-bank register array of (stage, suite).
func (l *Layout) ArrayAt(stage, u int) *dataplane.RegisterArray {
	s := l.suiteAt(stage, u)
	if s == nil {
		return nil
	}
	return s.array
}

// AllocRegisters reserves width registers in (stage, suite)'s bank and
// returns the base offset — the runtime register allocation that lets
// concurrent queries share one bank.
func (l *Layout) AllocRegisters(stage, u int, width uint32) (uint32, error) {
	s := l.suiteAt(stage, u)
	if s == nil || s.array == nil {
		return 0, fmt.Errorf("modules: no state bank at stage %d suite %d", stage, u)
	}
	for i, r := range s.free {
		if r.n < width {
			continue
		}
		if r.n == width {
			s.free = slices.Delete(s.free, i, i+1)
		} else {
			s.free[i] = regRun{r.off + width, r.n - width}
		}
		return r.off, nil
	}
	return 0, fmt.Errorf("modules: state bank at stage %d suite %d exhausted (no free run of %d registers; bank size %d)",
		stage, u, width, s.array.Size())
}

// FreeRegisters returns an allocation for reuse, merging it with the
// free runs on either side so that churn across widths never strands
// registers in pieces too small for the next request.
func (l *Layout) FreeRegisters(stage, u int, offset, width uint32) {
	s := l.suiteAt(stage, u)
	if s == nil {
		return
	}
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].off > offset })
	if i > 0 && s.free[i-1].off+s.free[i-1].n == offset {
		i--
		s.free[i].n += width
	} else {
		s.free = slices.Insert(s.free, i, regRun{offset, width})
	}
	if i+1 < len(s.free) && s.free[i].off+s.free[i].n == s.free[i+1].off {
		s.free[i].n += s.free[i+1].n
		s.free = slices.Delete(s.free, i+1, i+2)
	}
}

// TernaryScans sums linear ternary-scan fallbacks across the layout's
// tables — newton_init, newton_fin, and every module table. Module
// tables are exact-match so they never scan; newton_init is the series
// that matters: once its rule set compiles, this counter stops moving.
func (l *Layout) TernaryScans() uint64 {
	n := l.Init.TernaryScans() + l.Fin.TernaryScans()
	for _, ss := range l.suites {
		for _, s := range ss {
			for _, t := range s.tables {
				if t != nil {
					n += t.TernaryScans()
				}
			}
		}
	}
	return n
}

// TotalRuleEntries sums installed rules across all module tables plus
// newton_init/newton_fin — the table-entry metric of Figs. 16 and 17.
func (l *Layout) TotalRuleEntries() int {
	n := l.Init.Entries() + l.Fin.Entries()
	for _, ss := range l.suites {
		for _, s := range ss {
			for _, t := range s.tables {
				if t != nil {
					n += t.Entries()
				}
			}
		}
	}
	return n
}
