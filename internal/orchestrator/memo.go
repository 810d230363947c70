package orchestrator

import (
	"encoding/binary"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

// memo keeps admission work across plan recomputes: compiled programs
// with their footprints and partitions, keyed by query shape and
// compile options, and placements, keyed by edge set, stage count and
// topology version. Per-tenant copies of one catalog query share an
// entry. Each full recompute sweeps the entries it did not use, so the
// memo holds at most the distinct (shape, rung) pairs of the current
// intent set. A nil *memo computes everything fresh — the uncached
// oracle the tests compare against.
type memo struct {
	progs  map[string]*compiled
	places map[string]*placed
	key    []byte // scratch for key encoding
}

func newMemo() *memo {
	return &memo{progs: map[string]*compiled{}, places: map[string]*placed{}}
}

// compiled is one query shape compiled at one rung.
type compiled struct {
	fp   *scheduler.Footprint
	prog *modules.Program

	// The program sliced at the plan's partition size, on first
	// partitioned admission, and the summed footprints of partition
	// sets sharing one switch, keyed by their index bitmask.
	sliced   bool
	parts    []*scheduler.Footprint
	sliceErr error
	sums     map[uint64]*scheduler.Footprint

	used bool
}

// placed is one memoized placement.Place result.
type placed struct {
	pl   placement.Placement
	m    int
	err  error
	used bool
}

// compile returns q compiled under opts. Compile errors are not
// memoized: their messages name the query, which the key leaves out.
func (m *memo) compile(q *query.Query, opts compiler.Options, stagesPer int) (*compiled, error) {
	if m != nil {
		m.key = appendShapeKey(m.key[:0], q, opts, stagesPer)
		if c, ok := m.progs[string(m.key)]; ok {
			c.used = true
			return c, nil
		}
	}
	p, err := compiler.Compile(q, opts)
	if err != nil {
		return nil, err
	}
	c := &compiled{fp: scheduler.NewFootprint(p), prog: p, used: true}
	if m != nil {
		m.progs[string(m.key)] = c
	}
	return c, nil
}

// place returns placement.Place over topo for the given edges.
func (m *memo) place(topo *topology.Topology, edges []int, stages, stagesPer int) *placed {
	if m != nil {
		m.key = appendPlaceKey(m.key[:0], topo.Version(), edges, stages, stagesPer)
		if p, ok := m.places[string(m.key)]; ok {
			p.used = true
			return p
		}
	}
	p := &placed{used: true}
	p.pl, p.m, p.err = placement.Place(topo, edges, stages, stagesPer)
	if m != nil {
		m.places[string(m.key)] = p
	}
	return p
}

// sweep drops the entries the last recompute did not use.
func (m *memo) sweep() {
	for k, c := range m.progs {
		if !c.used {
			delete(m.progs, k)
		}
		c.used = false
	}
	for k, p := range m.places {
		if !p.used {
			delete(m.places, k)
		}
		p.used = false
	}
}

// partitions returns the footprints of the program sliced into
// stagesPer-stage partitions (modules.SliceProgram).
func (c *compiled) partitions(stagesPer int) ([]*scheduler.Footprint, error) {
	if !c.sliced {
		progs, err := modules.SliceProgram(c.prog, stagesPer)
		c.sliced, c.sliceErr = true, err
		for _, p := range progs {
			c.parts = append(c.parts, scheduler.NewFootprint(p))
		}
	}
	return c.parts, c.sliceErr
}

// on returns the charge of hosting partitions idxs on one switch.
func (c *compiled) on(idxs []int) *scheduler.Footprint {
	if len(idxs) == 1 {
		return c.parts[idxs[0]]
	}
	var mask uint64
	for _, k := range idxs {
		if k >= 64 {
			return c.sum(idxs) // beyond the bitmask key: not memoized
		}
		mask |= 1 << uint(k)
	}
	f, ok := c.sums[mask]
	if !ok {
		if c.sums == nil {
			c.sums = map[uint64]*scheduler.Footprint{}
		}
		f = c.sum(idxs)
		c.sums[mask] = f
	}
	return f
}

func (c *compiled) sum(idxs []int) *scheduler.Footprint {
	fps := make([]*scheduler.Footprint, len(idxs))
	for i, k := range idxs {
		fps[i] = c.parts[k]
	}
	return scheduler.SumFootprints(fps...)
}

// appendShapeKey appends a binary encoding of everything compilation
// reads from q and opts, plus the partition size. Name and Description
// are left out, so renamed copies of one query share the key. Lengths
// prefix every list, so distinct shapes cannot encode alike.
func appendShapeKey(b []byte, q *query.Query, o compiler.Options, stagesPer int) []byte {
	b = binary.AppendVarint(b, int64(q.Window))
	b = binary.AppendUvarint(b, uint64(len(q.Branches)))
	for _, br := range q.Branches {
		b = binary.AppendUvarint(b, uint64(len(br.Prims)))
		for _, pr := range br.Prims {
			b = binary.AppendVarint(b, int64(pr.Kind))
			b = binary.AppendUvarint(b, uint64(len(pr.Preds)))
			for _, p := range pr.Preds {
				b = binary.AppendUvarint(b, uint64(p.Field))
				b = binary.AppendVarint(b, int64(p.Op))
				b = binary.AppendUvarint(b, p.Value)
				b = binary.AppendUvarint(b, p.Mask)
			}
			for _, k := range pr.Keys {
				b = binary.AppendUvarint(b, k)
			}
			b = binary.AppendUvarint(b, uint64(pr.Value))
		}
	}
	if mg := q.Merge; mg == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(mg.Op))
		b = binary.AppendUvarint(b, uint64(len(mg.Coeffs)))
		for _, c := range mg.Coeffs {
			b = binary.AppendVarint(b, c)
		}
		b = binary.AppendVarint(b, int64(mg.Cmp))
		b = binary.AppendVarint(b, mg.Threshold)
	}
	b = binary.AppendVarint(b, int64(o.QID))
	b = append(b, boolByte(o.Opt1), boolByte(o.Opt2), boolByte(o.Opt3))
	b = binary.AppendVarint(b, int64(o.ReduceRows))
	b = binary.AppendVarint(b, int64(o.DistinctHashes))
	b = binary.AppendUvarint(b, uint64(o.Width))
	b = binary.AppendUvarint(b, uint64(o.ShardIndex))
	b = binary.AppendUvarint(b, uint64(o.ShardCount))
	return binary.AppendVarint(b, int64(stagesPer))
}

func appendPlaceKey(b []byte, topoVersion uint64, edges []int, stages, stagesPer int) []byte {
	b = binary.AppendUvarint(b, topoVersion)
	b = binary.AppendVarint(b, int64(stages))
	b = binary.AppendVarint(b, int64(stagesPer))
	for _, e := range edges {
		b = binary.AppendVarint(b, int64(e))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
