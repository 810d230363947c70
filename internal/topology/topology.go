// Package topology models the networks the evaluation deploys Newton
// into: the three-switch testbed line, k-ary fat-trees, and a North
// America ISP backbone — plus ECMP shortest-path routing and link
// failures with rerouting, which the resilient placement algorithm must
// survive.
package topology

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
)

// Kind classifies a node.
type Kind int

const (
	// Host is an end host (traffic source/sink).
	Host Kind = iota
	// Edge is a top-of-rack/edge switch (a monitored flow's first hop).
	Edge
	// Agg is an aggregation switch.
	Agg
	// Core is a core/backbone switch.
	Core
)

// String names the node kind.
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Edge:
		return "edge"
	case Agg:
		return "agg"
	case Core:
		return "core"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one vertex of the topology.
type Node struct {
	ID   int
	Name string
	Kind Kind
}

type link struct {
	a, b int
	up   bool
}

// Topology is an undirected graph of hosts and switches with
// enable/disable-able links. It is not safe for concurrent mutation;
// concurrent reads are safe.
type Topology struct {
	nodes  []Node
	links  []*link
	adj    map[int][]*link
	byName map[string]int

	// up and upSw are each node's sorted neighbors over up links (all
	// nodes, and switches only). Every mutation rebuilds the lists of
	// the endpoints it touches into fresh slices, so reads never
	// allocate and a slice already handed out never changes.
	up, upSw [][]int

	version uint64
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{adj: map[int][]*link{}, byName: map[string]int{}}
}

// Version counts the topology's mutations (AddNode, AddLink, and SetLink
// calls that change a link's state). Planners cache results derived from
// the graph under it.
func (t *Topology) Version() uint64 { return t.version }

// AddNode adds a node and returns its ID.
func (t *Topology) AddNode(name string, kind Kind) int {
	id := len(t.nodes)
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Kind: kind})
	t.up = append(t.up, nil)
	t.upSw = append(t.upSw, nil)
	if _, dup := t.byName[name]; !dup {
		t.byName[name] = id
	}
	t.version++
	return id
}

// AddLink connects two existing nodes. A duplicate pair adds a parallel
// link, which Neighbors reports once per link.
func (t *Topology) AddLink(a, b int) {
	if a == b {
		panic("topology: self link")
	}
	if a < 0 || b < 0 || a >= len(t.nodes) || b >= len(t.nodes) {
		panic("topology: link to an unknown node")
	}
	l := &link{a: a, b: b, up: true}
	t.links = append(t.links, l)
	t.adj[a] = append(t.adj[a], l)
	t.adj[b] = append(t.adj[b], l)
	t.linkChanged(l)
}

// SetLink brings the a–b link up or down (failure injection). It reports
// whether such a link exists.
func (t *Topology) SetLink(a, b int, up bool) bool {
	for _, l := range t.adj[a] {
		if l.a == b || l.b == b {
			if l.up != up {
				l.up = up
				t.linkChanged(l)
			}
			return true
		}
	}
	return false
}

// linkChanged rebuilds the adjacency of a link's endpoints and bumps the
// version.
func (t *Topology) linkChanged(l *link) {
	t.rebuild(l.a)
	t.rebuild(l.b)
	t.version++
}

func (t *Topology) rebuild(id int) {
	var all, sw []int
	for _, l := range t.adj[id] {
		if !l.up {
			continue
		}
		other := l.a
		if other == id {
			other = l.b
		}
		all = append(all, other)
	}
	sort.Ints(all)
	for _, n := range all {
		if t.nodes[n].Kind != Host {
			sw = append(sw, n)
		}
	}
	t.up[id], t.upSw[id] = all, sw
}

// Node returns the node with the given ID.
func (t *Topology) Node(id int) Node { return t.nodes[id] }

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Neighbors lists nodes reachable over up links, sorted. The slice is
// shared: callers must not modify it.
func (t *Topology) Neighbors(id int) []int {
	if id < 0 || id >= len(t.up) {
		return nil
	}
	return t.up[id]
}

// SwitchNeighbors lists neighboring switches only (the DFS of the
// placement algorithm walks switches, not hosts), sorted. The slice is
// shared: callers must not modify it.
func (t *Topology) SwitchNeighbors(id int) []int {
	if id < 0 || id >= len(t.upSw) {
		return nil
	}
	return t.upSw[id]
}

// Hosts lists host IDs.
func (t *Topology) Hosts() []int { return t.byKind(Host) }

// Switches lists all switch IDs.
func (t *Topology) Switches() []int {
	var out []int
	for _, n := range t.nodes {
		if n.Kind != Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// EdgeSwitches lists edge-switch IDs.
func (t *Topology) EdgeSwitches() []int { return t.byKind(Edge) }

func (t *Topology) byKind(k Kind) []int {
	var out []int
	for _, n := range t.nodes {
		if n.Kind == k {
			out = append(out, n.ID)
		}
	}
	return out
}

// bfsDist computes hop distances to dst over up links.
func (t *Topology) bfsDist(dst int) []int {
	dist := make([]int, len(t.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range t.Neighbors(cur) {
			if dist[n] == -1 {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// Path computes the ECMP shortest path from src to dst over up links.
// Among equal-cost next hops, the choice is a deterministic hash of
// (flowSeed, current node) — per-flow ECMP as deployed networks do it.
// It returns the full node sequence including endpoints, or nil if dst
// is unreachable.
func (t *Topology) Path(src, dst int, flowSeed uint64) []int {
	if src == dst {
		return []int{src}
	}
	dist := t.bfsDist(dst)
	if dist[src] == -1 {
		return nil
	}
	path := []int{src}
	cur := src
	for cur != dst {
		var next []int
		for _, n := range t.Neighbors(cur) {
			if dist[n] == dist[cur]-1 {
				next = append(next, n)
			}
		}
		if len(next) == 0 {
			return nil // inconsistent (link flapped mid-walk)
		}
		cur = next[ecmpPick(flowSeed, cur, len(next))]
		path = append(path, cur)
	}
	return path
}

// SwitchPath returns only the switches of a path.
func (t *Topology) SwitchPath(path []int) []int {
	var out []int
	for _, id := range path {
		if t.nodes[id].Kind != Host {
			out = append(out, id)
		}
	}
	return out
}

func ecmpPick(seed uint64, node, n int) int {
	h := fnv.New32a()
	var b [12]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	b[8], b[9], b[10], b[11] = byte(node), byte(node>>8), byte(node>>16), byte(node>>24)
	h.Write(b[:])
	return int(h.Sum32()) % n
}

// Linear builds the testbed-like chain used by the CQE experiments:
// h1 — s1 — s2 — … — sN — h2. It returns the topology and the two host
// IDs.
func Linear(switches int) (*Topology, int, int) {
	if switches < 1 {
		panic("topology: need at least one switch")
	}
	t := New()
	h1 := t.AddNode("h1", Host)
	prev := h1
	first := -1
	for i := 1; i <= switches; i++ {
		s := t.AddNode(fmt.Sprintf("s%d", i), Edge)
		if first == -1 {
			first = s
		}
		t.AddLink(prev, s)
		prev = s
	}
	h2 := t.AddNode("h2", Host)
	t.AddLink(prev, h2)
	return t, h1, h2
}

// FatTree builds a k-ary fat-tree (k even): (k/2)² core switches, k pods
// of k/2 aggregation and k/2 edge switches, and k/2 hosts per edge
// switch — the placement experiment's scaling substrate.
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic("topology: fat-tree arity must be even and >= 2")
	}
	t := New()
	half := k / 2
	cores := make([][]int, half)
	for i := 0; i < half; i++ {
		cores[i] = make([]int, half)
		for j := 0; j < half; j++ {
			cores[i][j] = t.AddNode(fmt.Sprintf("core%d_%d", i, j), Core)
		}
	}
	for p := 0; p < k; p++ {
		aggs := make([]int, half)
		edges := make([]int, half)
		for i := 0; i < half; i++ {
			aggs[i] = t.AddNode(fmt.Sprintf("agg%d_%d", p, i), Agg)
			edges[i] = t.AddNode(fmt.Sprintf("edge%d_%d", p, i), Edge)
		}
		for i, a := range aggs {
			for _, e := range edges {
				t.AddLink(a, e)
			}
			for j := 0; j < half; j++ {
				t.AddLink(a, cores[i][j])
			}
		}
		for ei, e := range edges {
			for hi := 0; hi < half; hi++ {
				h := t.AddNode(fmt.Sprintf("h%d_%d_%d", p, ei, hi), Host)
				t.AddLink(e, h)
			}
		}
	}
	return t
}

// ISPBackbone builds an abstraction of the AT&T North America OC-768
// backbone the placement evaluation uses: 25 city POPs with the
// published-map adjacency. All nodes are edge switches (every POP
// originates monitored traffic).
func ISPBackbone() *Topology {
	t := New()
	cities := []string{
		"Seattle", "Portland", "Sacramento", "SanFrancisco", "LosAngeles",
		"SanDiego", "SaltLake", "Phoenix", "Denver", "Albuquerque",
		"Dallas", "Houston", "SanAntonio", "KansasCity", "StLouis",
		"Chicago", "Nashville", "Atlanta", "Orlando", "Miami",
		"Washington", "Philadelphia", "NewYork", "Boston", "Cleveland",
	}
	ids := map[string]int{}
	for _, c := range cities {
		ids[c] = t.AddNode(c, Edge)
	}
	edges := [][2]string{
		{"Seattle", "Portland"}, {"Seattle", "SaltLake"}, {"Seattle", "Chicago"},
		{"Portland", "Sacramento"}, {"Sacramento", "SanFrancisco"}, {"Sacramento", "SaltLake"},
		{"SanFrancisco", "LosAngeles"}, {"LosAngeles", "SanDiego"}, {"LosAngeles", "Phoenix"},
		{"SanDiego", "Phoenix"}, {"Phoenix", "Albuquerque"}, {"SaltLake", "Denver"},
		{"Denver", "KansasCity"}, {"Denver", "Albuquerque"}, {"Albuquerque", "Dallas"},
		{"Dallas", "Houston"}, {"Dallas", "KansasCity"}, {"Houston", "SanAntonio"},
		{"SanAntonio", "Phoenix"}, {"KansasCity", "StLouis"}, {"StLouis", "Chicago"},
		{"StLouis", "Nashville"}, {"Chicago", "Cleveland"}, {"Nashville", "Atlanta"},
		{"Atlanta", "Orlando"}, {"Atlanta", "Washington"}, {"Orlando", "Miami"},
		{"Houston", "Orlando"}, {"Washington", "Philadelphia"}, {"Philadelphia", "NewYork"},
		{"NewYork", "Boston"}, {"Boston", "Cleveland"}, {"Cleveland", "NewYork"},
		{"Chicago", "Washington"}, {"Dallas", "Atlanta"}, {"SanFrancisco", "Chicago"},
	}
	for _, e := range edges {
		t.AddLink(ids[e[0]], ids[e[1]])
	}
	return t
}

// Random builds a connected random switch graph: n edge switches on a
// ring (guaranteeing connectivity) plus `extra` random chords. Used by
// property tests to check placement resilience on topologies with no
// helpful structure.
func Random(n, extra int, seed int64) *Topology {
	if n < 3 {
		panic("topology: random graph needs at least 3 switches")
	}
	t := New()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, n)
	for i := range ids {
		ids[i] = t.AddNode(fmt.Sprintf("r%d", i), Edge)
	}
	for i := range ids {
		t.AddLink(ids[i], ids[(i+1)%n])
	}
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || (a+1)%n == b || (b+1)%n == a {
			continue
		}
		t.AddLink(ids[a], ids[b])
	}
	return t
}

// NodeByName finds a node ID by name (-1 if absent).
func (t *Topology) NodeByName(name string) int {
	if id, ok := t.byName[name]; ok {
		return id
	}
	return -1
}
