package spec

import (
	"strings"
	"testing"

	"eds/internal/graph"
)

func TestGraphFamilies(t *testing.T) {
	tests := []struct {
		spec    string
		n, m    int
		hasOpt  bool
		wantErr bool
	}{
		{spec: "cycle:8", n: 8, m: 8},
		{spec: "path:5", n: 5, m: 4},
		{spec: "complete:5", n: 5, m: 10},
		{spec: "hypercube:3", n: 8, m: 12},
		{spec: "torus:3x4", n: 12, m: 24},
		{spec: "petersen", n: 10, m: 15},
		{spec: "matching:4", n: 8, m: 4},
		{spec: "regular:n=12,d=3", n: 12, m: 18},
		{spec: "evenlb:d=6", n: 11, m: 33, hasOpt: true},
		{spec: "oddlb:d=5", n: 54, m: 135, hasOpt: true},
		{spec: "nonsense:1", wantErr: true},
		{spec: "regular:n=bad", wantErr: true},
		{spec: "file:/nonexistent/path.graph", wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			g, opt, err := Graph(tc.spec, 1)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatalf("Graph: %v", err)
			}
			if g.N() != tc.n || g.M() != tc.m {
				t.Errorf("got n=%d m=%d, want n=%d m=%d", g.N(), g.M(), tc.n, tc.m)
			}
			if (opt != nil) != tc.hasOpt {
				t.Errorf("hasOpt = %v, want %v", opt != nil, tc.hasOpt)
			}
		})
	}
}

func TestAlgorithm(t *testing.T) {
	cycle, _, err := Graph("cycle:6", 1)
	if err != nil {
		t.Fatal(err)
	}
	k4, _, err := Graph("complete:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := Graph("path:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The two shapes IDMatching cannot finish on: an undirected
	// self-loop, and two parallel edges whose port orders cross.
	lb := graph.NewBuilder(1)
	lb.MustConnect(0, 1, 0, 2)
	loop := lb.MustBuild()
	cb := graph.NewBuilder(2)
	cb.MustConnect(0, 1, 1, 2)
	cb.MustConnect(0, 2, 1, 1)
	crossed := cb.MustBuild()

	tests := []struct {
		name    string
		spec    string
		g       *graph.Graph
		want    string
		wantErr bool
	}{
		{name: "auto even regular", spec: "auto", g: cycle, want: "portone"},
		{name: "auto odd regular", spec: "auto", g: k4, want: "regularodd"},
		{name: "auto irregular", spec: "auto", g: path, want: "general(Δ=3)"},
		{name: "explicit general with delta", spec: "general:7", g: path, want: "general(Δ=7)"},
		{name: "general below max degree", spec: "general:1", g: k4, wantErr: true},
		{name: "regularodd on even-regular", spec: "regularodd", g: cycle, wantErr: true},
		{name: "unknown", spec: "zigzag", g: cycle, wantErr: true},
		{name: "idmatching on a simple graph", spec: "idmatching", g: path, want: "idmatching"},
		{name: "idmatching over a self-loop", spec: "idmatching", g: loop, wantErr: true},
		{name: "idmatching over crossed parallel edges", spec: "idmatching", g: crossed, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			alg, _, err := Algorithm(tc.spec, tc.g)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatalf("Algorithm: %v", err)
			}
			if !strings.HasPrefix(alg.Name(), tc.want) {
				t.Errorf("algorithm = %s, want %s", alg.Name(), tc.want)
			}
		})
	}
}

// TestBoundFollowsResolvedAlgorithm pins that the bound depends on the
// resolved algorithm and the graph, not on the spelling: on a graph of
// maximum degree 1 every spec that resolves to AllEdges reports Table
// 1's bound 1, and AllEdges on a graph with Δ >= 2 reports none.
func TestBoundFollowsResolvedAlgorithm(t *testing.T) {
	matching, _, err := Graph("matching:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	cycle, _, err := Graph("cycle:6", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"auto", "general", "general:1", "alledges"} {
		alg, bound, err := Algorithm(s, matching)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if alg.Name() != "alledges" || bound == nil || bound.String() != "1" {
			t.Errorf("%s on a matching: %s with bound %v, want alledges with bound 1", s, alg.Name(), bound)
		}
	}
	if _, bound, err := Algorithm("alledges", cycle); err != nil || bound != nil {
		t.Errorf("alledges on a cycle: bound %v, err %v; want no bound", bound, err)
	}
	// An edgeless graph is 0-regular: PortOne's even-regular bound
	// would divide by zero, and D = ∅ is optimal, so the bound is 1.
	edgeless := graph.MustFromUndirected(3, nil)
	if alg, bound, err := Algorithm("portone", edgeless); err != nil || alg.Name() != "portone" || bound == nil || bound.String() != "1" {
		t.Errorf("portone on an edgeless graph: %v with bound %v, err %v; want portone with bound 1", alg, bound, err)
	}
}
