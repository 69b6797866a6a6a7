package substrate

import (
	"math"
	"testing"

	"tvnep/internal/graph"
)

func TestGridCapacities(t *testing.T) {
	n := Grid(4, 5, 3.5, 5)
	if n.NumNodes() != 20 || n.NumLinks() != 62 {
		t.Fatalf("shape %d/%d, want 20/62", n.NumNodes(), n.NumLinks())
	}
	for _, c := range n.NodeCap {
		if c != 3.5 {
			t.Fatalf("node cap %v, want 3.5", c)
		}
	}
	for _, c := range n.LinkCap {
		if c != 5 {
			t.Fatalf("link cap %v, want 5", c)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	n := Grid(2, 2, 1, 1)
	n.NodeCap[0] = -1
	if n.Validate() == nil {
		t.Fatal("negative node capacity not rejected")
	}
	n = Grid(2, 2, 1, 1)
	n.LinkCap[0] = -1
	if n.Validate() == nil {
		t.Fatal("negative link capacity not rejected")
	}
	n = Grid(2, 2, 1, 1)
	n.NodeCap = n.NodeCap[:1]
	if n.Validate() == nil {
		t.Fatal("length mismatch not rejected")
	}
	n = Grid(2, 2, 1, 1)
	n.LinkCap = n.LinkCap[:1]
	if n.Validate() == nil {
		t.Fatal("link length mismatch not rejected")
	}
	for _, tc := range []struct {
		name string
		edit func(n *Network)
	}{
		{"nan-node-capacity", func(n *Network) { n.NodeCap[1] = math.NaN() }},
		{"inf-node-capacity", func(n *Network) { n.NodeCap[2] = math.Inf(1) }},
		{"nan-link-capacity", func(n *Network) { n.LinkCap[1] = math.NaN() }},
		{"inf-link-capacity", func(n *Network) { n.LinkCap[0] = math.Inf(1) }},
	} {
		n := Grid(2, 2, 1, 1)
		tc.edit(n)
		if n.Validate() == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
}

func TestNewCustomGraph(t *testing.T) {
	g := graph.Chain(3)
	n := New(g, 2, 7)
	if n.NumNodes() != 3 || n.NumLinks() != 2 {
		t.Fatalf("shape %d/%d", n.NumNodes(), n.NumLinks())
	}
	if n.LinkCap[1] != 7 {
		t.Fatal("custom link cap wrong")
	}
}
