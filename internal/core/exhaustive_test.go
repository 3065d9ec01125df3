package core_test

import (
	"testing"

	"eds/internal/core"
	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/verify"
)

// allPortNumberings enumerates every port numbering of the complete
// graph K_n (a permutation of 1..n-1 per node), invoking fn for each.
// For K4 that is 6^4 = 1296 graphs — an exhaustive adversary.
func allPortNumberings(n int, fn func(g *graph.Graph)) {
	perms := permutations(n - 1)
	choice := make([]int, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			b := graph.NewBuilder(n)
			// Node u's ports are assigned to neighbours in the order
			// given by its chosen permutation; Connect wires each pair
			// once using both endpoints' chosen port numbers.
			portOf := func(u, w int) int {
				// Neighbour list of u in increasing node order skips u.
				idx := w
				if w > u {
					idx--
				}
				return perms[choice[u]][idx] + 1
			}
			for u := 0; u < n; u++ {
				for w := u + 1; w < n; w++ {
					b.MustConnect(u, portOf(u, w), w, portOf(w, u))
				}
			}
			fn(b.MustBuild())
			return
		}
		for c := range perms {
			choice[v] = c
			rec(v + 1)
		}
	}
	rec(0)
}

func permutations(k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < k; i++ {
			if !used[i] {
				used[i] = true
				cur = append(cur, i)
				rec()
				cur = cur[:len(cur)-1]
				used[i] = false
			}
		}
	}
	rec()
	return out
}

// TestExhaustivePortNumberingsK4 runs the Theorem 4 and Theorem 5
// algorithms under every one of the 1296 port numberings of K4 (d = 3,
// optimum 2): feasibility and the tight bound 4 - 6/4 = 5/2 must hold
// for each, i.e. |D| <= 5. This is the "for every port numbering"
// quantifier of the theorems checked exhaustively rather than sampled.
func TestExhaustivePortNumberingsK4(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	const n = 4
	bound := ratio.OddRegularBound(3) // 5/2
	const opt = 2                     // minimum EDS of K4
	count := 0
	worstRegular := ratio.FromInt(0)
	algs := []sim.Algorithm{core.RegularOdd{}, core.NewGeneral(3)}
	allPortNumberings(n, func(g *graph.Graph) {
		count++
		if err := g.Validate(); err != nil {
			t.Fatalf("numbering %d invalid: %v", count, err)
		}
		for _, alg := range algs {
			res, err := sim.RunSequential(g, alg)
			if err != nil {
				t.Fatalf("numbering %d: %v", count, err)
			}
			d := res.Outputs
			if !verify.IsEdgeDominatingSet(g, d) {
				t.Fatalf("numbering %d: %s output infeasible", count, alg.Name())
			}
			measured := ratio.New(int64(d.Count()), opt)
			if !measured.LessEq(bound) {
				t.Fatalf("numbering %d: %s ratio %v exceeds %v", count, alg.Name(), measured, bound)
			}
			if alg.Name() == "regularodd" && worstRegular.Cmp(measured) < 0 {
				worstRegular = measured
			}
		}
	})
	if count != 1296 {
		t.Fatalf("enumerated %d numberings, want 1296", count)
	}
	// Some numbering must be worse than the best case (|D| = 2): the
	// adversary has real power even on K4.
	if worstRegular.LessEq(ratio.FromInt(1)) {
		t.Errorf("worst-case ratio over all numberings = %v; expected an adversarial numbering to exist", worstRegular)
	}
	t.Logf("worst regularodd ratio over all 1296 numberings of K4: %v", worstRegular)
}

// TestExhaustivePortNumberingsC4 does the same for the 16 numberings of
// the 4-cycle with the Theorem 3 algorithm (d = 2, bound 3, optimum 1...
// the minimum EDS of C4 has 2 edges, so |D| <= 3 is allowed only if
// ratio <= 3 -> |D| <= 6; every numbering must still be feasible).
func TestExhaustivePortNumberingsC4(t *testing.T) {
	const opt = 2 // minimum EDS of C4 (two opposite edges... actually 2)
	bound := ratio.EvenRegularBound(2)
	// Enumerate the 2^4 = 16 port numberings of C4: each node either
	// keeps or swaps its two ports.
	for mask := 0; mask < 16; mask++ {
		b := graph.NewBuilder(4)
		port := func(v, dir int) int { // dir 0 = towards v+1, 1 = towards v-1
			if mask&(1<<v) != 0 {
				return 2 - dir
			}
			return 1 + dir
		}
		for v := 0; v < 4; v++ {
			w := (v + 1) % 4
			b.MustConnect(v, port(v, 0), w, port(w, 1))
		}
		g := b.MustBuild()
		res, err := sim.RunSequential(g, core.PortOne{})
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		d := res.Outputs
		if !verify.IsEdgeDominatingSet(g, d) {
			t.Fatalf("mask %d: infeasible", mask)
		}
		if !ratio.New(int64(d.Count()), opt).LessEq(bound) {
			t.Fatalf("mask %d: ratio %d/%d exceeds %v", mask, d.Count(), opt, bound)
		}
	}
}
