package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/spec"
)

// Small kinds keep the generation tests fast; the workloads use the
// same code with larger ranges.
var testColdKinds = []graphKind{
	{gen: "regular3", family: famRegular3, lo: 20, hi: 60},
	{gen: "regular4", family: famTorus, lo: 20, hi: 60},
	{gen: "tree", family: famTree, lo: 30, hi: 60, degLo: 3, degHi: 5},
}

func TestAppendWireIsCanonicalWriteTo(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 50, 3)
	var want bytes.Buffer
	if err := graph.WriteTo(&want, g); err != nil {
		t.Fatal(err)
	}
	if got := appendWire(nil, g, nil); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("appendWire without relabelling differs from graph.WriteTo")
	}
	for _, h := range []*graph.Graph{g, gen.Torus(40, 30), boundedTree(rand.New(rand.NewSource(2)), 1000, 5, 6)} {
		if n, c := len(appendWire(nil, h, permutation(3, h.N()))), wireCap(h); n > c || n < c*3/4 {
			t.Errorf("wire form of %d bytes against a bound of %d", n, c)
		}
	}
}

// A relabelled body is a new port-numbered graph with the same outcome:
// the reference of the base graph checks the relabelled graph's
// response once node names are mapped back.
func TestRelabelledBodyChecksAgainstBaseReference(t *testing.T) {
	base := gen.MustRandomRegular(rand.New(rand.NewSource(3)), 40, 3)
	alg, _, err := spec.Algorithm("auto", base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(base, alg)
	if err != nil {
		t.Fatal(err)
	}
	perm := permutation(7, base.N())
	h, err := graph.ReadGraph(bytes.NewReader(appendWire(nil, base, perm)))
	if err != nil {
		t.Fatal(err)
	}
	if graph.Digest(h) == graph.Digest(base) {
		t.Fatal("relabelled graph has the base graph's digest")
	}
	got, err := newReference(h, alg)
	if err != nil {
		t.Fatal(err)
	}
	if got.rounds != ref.rounds || got.messages != ref.messages || got.count != ref.count {
		t.Fatalf("relabelled outcome %d/%d/%d, base %d/%d/%d",
			got.rounds, got.messages, got.count, ref.rounds, ref.messages, ref.count)
	}
	resp := runResponse{Algorithm: got.alg, N: got.n, M: got.m, Rounds: got.rounds, Messages: got.messages,
		Edges: got.count, Dominating: true, EdgeList: got.pairs}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkBody(body, shapeEdges, inverse(perm)); err != nil {
		t.Errorf("relabelled edge list rejected: %v", err)
	}
	if err := ref.checkBody(body, shapeEdges, nil); err == nil {
		t.Error("edge list accepted without mapping node names back")
	}
}

func TestColdInputsAreSeedDeterministic(t *testing.T) {
	bases1, entries1, err := coldInputs(5, testColdKinds, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	bases2, entries2, err := coldInputs(5, testColdKinds, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	_, other, err := coldInputs(6, testColdKinds, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bases1 {
		if !bases1[i].g.Equal(bases2[i].g) {
			t.Fatalf("base %d differs between two runs with the same seed", i)
		}
	}
	same := 0
	for i := range entries1 {
		a, b := entries1[i], entries2[i]
		if a.base != b.base || a.shape != b.shape || !bytes.Equal(a.body, b.body) {
			t.Fatalf("request %d differs between two runs with the same seed", i)
		}
		if bytes.Equal(a.body, other[i].body) {
			same++
		}
	}
	if same == len(entries1) {
		t.Error("another seed gave the same request bodies")
	}
	bodies := map[string]bool{}
	for _, e := range entries1 {
		bodies[string(e.body)] = true
	}
	if len(bodies) != len(entries1) {
		t.Errorf("%d distinct bodies among %d requests; every serve-cold request must be new", len(bodies), len(entries1))
	}
}

func TestColdMixIsStratified(t *testing.T) {
	shapes := coldShapes(rand.New(rand.NewSource(1)), 100)
	for b := 0; b < 100; b += 10 {
		n := map[int]int{}
		for _, s := range shapes[b : b+10] {
			n[s]++
		}
		if n[shapeSummary] != 6 || n[shapeEdges] != 3 || n[shapeStream] != 1 {
			t.Fatalf("block %d has shape counts %v, want 6/3/1", b/10, n)
		}
	}
	picks := stratified(rand.New(rand.NewSource(1)), 25, 5)
	for b := 0; b < 25; b += 5 {
		seen := map[int]bool{}
		for _, p := range picks[b : b+5] {
			seen[p] = true
		}
		if len(seen) != 5 {
			t.Fatalf("block %v is not a permutation", picks[b:b+5])
		}
	}
}

func TestTreeDegreeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for range 20 {
		g := boundedTree(rng, 200, 5, 6)
		if d := g.MaxDegree(); d < 5 || d > 6 {
			t.Fatalf("tree with maximum degree %d outside [5, 6]", d)
		}
	}
}
