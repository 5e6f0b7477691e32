package task

// GraphPool recycles Graph nodes — and, through them, their children
// slices — within a simulation replication. Every global-task arrival
// builds a fresh instance graph; at paper-scale horizons that is millions
// of short-lived nodes. The pool's free list is LIFO and Release pushes a
// parent after its children, so a shape that rebuilds the same topology
// pops nodes back in an order that reuses each node in the same role
// (group nodes keep their grown children capacity).
//
// Like task.Pool, a GraphPool is single-threaded per replication. A nil
// *GraphPool is valid: every method falls back to plain allocation, which
// is how Shape.Build produces graphs outside a simulation run.
type GraphPool struct {
	free []*Graph
	slab []Graph  // bump-allocation chunk take carves fresh nodes from
	kids []*Graph // bump-allocation chunk EnsureKids carves child arrays from
}

// graphSlab is the number of nodes a pool allocates per slab when its
// free list runs dry; see poolSlab for the rationale. kidSlab sizes the
// children-array arena in pointers.
const (
	graphSlab = 256
	kidSlab   = 1024
)

// take pops a reset node or carves a fresh one from the current slab.
func (p *GraphPool) take() *Graph {
	if p == nil {
		return &Graph{LeafIndex: -1}
	}
	if n := len(p.free) - 1; n >= 0 {
		g := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return g
	}
	if len(p.slab) == 0 {
		p.slab = make([]Graph, graphSlab)
		for i := range p.slab {
			p.slab[i].LeafIndex = -1
		}
	}
	g := &p.slab[0]
	p.slab = p.slab[1:]
	return g
}

// Simple returns a pooled leaf, mirroring the Simple constructor.
func (p *GraphPool) Simple(name string, pex float64) *Graph {
	g := p.take()
	g.Kind, g.Name, g.Pex, g.Exec = KindSimple, name, pex, pex
	return g
}

// Group returns a pooled, empty group node of the given kind; the caller
// appends its children to g.Children (the recycled backing array is
// retained, so steady-state appends do not allocate).
func (p *GraphPool) Group(kind Kind) *Graph {
	g := p.take()
	g.Kind = kind
	return g
}

// EnsureKids guarantees g.Children can hold n children without growing,
// carving the backing array from the pool's pointer arena when the
// node's retained array is too small. Builders call it before their
// append loop so a fresh group node costs at most one arena carve
// instead of an append-doubling ladder per node. A nil pool is a no-op:
// plain Build keeps its plain append behaviour.
func (p *GraphPool) EnsureKids(g *Graph, n int) {
	if p == nil || cap(g.Children) >= n {
		return
	}
	if n > kidSlab {
		g.Children = make([]*Graph, 0, n)
		return
	}
	if len(p.kids) < n {
		p.kids = make([]*Graph, kidSlab)
	}
	// The three-index slice caps the array at n so a later append past n
	// reallocates instead of overwriting the arena's next carve.
	g.Children = p.kids[0:0:n]
	p.kids = p.kids[n:]
}

// Release returns g and every descendant to the pool. The caller owns
// the graph exclusively at this point: no instance, frame, or queue may
// still reference any of its nodes. Nodes are reset on release so stale
// use surfaces as zeroed data.
func (p *GraphPool) Release(g *Graph) {
	if p == nil || g == nil {
		return
	}
	for i, c := range g.Children {
		p.Release(c)
		g.Children[i] = nil
	}
	kids := g.Children[:0]
	*g = Graph{Children: kids, LeafIndex: -1}
	p.free = append(p.free, g)
}

// Size returns the number of nodes currently parked in the free list.
func (p *GraphPool) Size() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
