// Package substrate defines the capacitated substrate (physical) network of
// Table I: a directed graph whose nodes and links both carry a single
// capacity value.
package substrate

import (
	"fmt"
	"math"

	"tvnep/internal/graph"
)

// Network is a capacitated substrate network.
type Network struct {
	G       *graph.Digraph
	NodeCap []float64 // per node
	LinkCap []float64 // per edge index of G
}

// New creates a substrate over g with uniform capacities.
func New(g *graph.Digraph, nodeCap, linkCap float64) *Network {
	n := &Network{
		G:       g,
		NodeCap: make([]float64, g.N),
		LinkCap: make([]float64, g.NumEdges()),
	}
	for i := range n.NodeCap {
		n.NodeCap[i] = nodeCap
	}
	for i := range n.LinkCap {
		n.LinkCap[i] = linkCap
	}
	return n
}

// Grid builds the paper's substrate: a rows×cols bidirected grid with the
// given uniform node and link capacities (Section VI-A uses 4×5, 3.5, 5).
func Grid(rows, cols int, nodeCap, linkCap float64) *Network {
	return New(graph.Grid(rows, cols), nodeCap, linkCap)
}

// NumNodes reports |V_S|.
func (n *Network) NumNodes() int { return n.G.N }

// NumLinks reports |E_S|.
func (n *Network) NumLinks() int { return n.G.NumEdges() }

// Validate checks structural invariants (finite nonnegative capacities,
// matching slice lengths).
func (n *Network) Validate() error {
	if len(n.NodeCap) != n.G.N {
		return fmt.Errorf("substrate: %d node capacities for %d nodes", len(n.NodeCap), n.G.N)
	}
	if len(n.LinkCap) != n.G.NumEdges() {
		return fmt.Errorf("substrate: %d link capacities for %d links", len(n.LinkCap), n.G.NumEdges())
	}
	for i, c := range n.NodeCap {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("substrate: node %d has invalid capacity %v", i, c)
		}
	}
	for i, c := range n.LinkCap {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("substrate: link %d has invalid capacity %v", i, c)
		}
	}
	return nil
}
