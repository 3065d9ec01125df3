package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"eds/internal/gen"
	"eds/internal/graph"
)

// The three graph families, each run by its own kernel: odd-regular
// graphs by RegularOdd, even-regular graphs (tori, 4-regular) by
// PortOne, trees by General. Per-family metrics carry these names on
// every workload.
const (
	famRegular3 = "regular3"
	famTorus    = "torus"
	famTree     = "tree"
)

var families = []string{famRegular3, famTorus, famTree}

// subRand returns a generator for one purpose, derived from the
// workload seed, so each input stream is independent of how much of
// the others was drawn.
func subRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed) ^ h.Sum64()))))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// graphKind names a generator: its metric family, a node-count range,
// and for trees a maximum-degree range.
type graphKind struct {
	gen          string // regular3, regular4, tree
	family       string
	lo, hi       int
	degLo, degHi int
}

// drawAt draws the i-th of count graphs of the kind. Sizes sit on an
// even grid over [lo, hi] and trees are redrawn until their maximum
// degree is in [degLo, degHi] (General's schedule grows as 2Δ²), so the
// seed changes the graphs but not the work they take.
func (k graphKind) drawAt(rng *rand.Rand, i, count int) (*graph.Graph, error) {
	x := k.lo + (k.hi-k.lo)*(2*i+1)/(2*count)
	switch k.gen {
	case "regular3":
		return gen.RandomRegular(rng, x&^1, 3)
	case "regular4":
		return gen.RandomRegular(rng, x, 4)
	case "tree":
		return boundedTree(rng, x, k.degLo, k.degHi), nil
	}
	return nil, fmt.Errorf("unknown graph kind %q", k.gen)
}

// boundedTree draws random trees on n nodes until one has maximum
// degree in [lo, hi].
func boundedTree(rng *rand.Rand, n, lo, hi int) *graph.Graph {
	for {
		if g := gen.RandomTree(rng, n); g.MaxDegree() >= lo && g.MaxDegree() <= hi {
			return g
		}
	}
}

// stratified returns n indices into [0, k): each block of k consecutive
// ones is a random permutation, so every stretch of requests has the
// same mix whatever the seed.
func stratified(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// appendWire appends g in the internal/graph wire format with node v
// written as perm[v] (perm nil: as v). With perm nil the bytes equal
// graph.WriteTo's canonical output. A relabelled body is the same
// port-numbered network under new node names: every anonymous algorithm
// gives it the same rounds, messages and |D|, and a dominating set that
// maps back onto the original's edge for edge.
func appendWire(dst []byte, g *graph.Graph, perm []int32) []byte {
	name := func(v int) int64 {
		if perm == nil {
			return int64(v)
		}
		return int64(perm[v])
	}
	dst = append(dst, "nodes "...)
	dst = strconv.AppendInt(dst, int64(g.N()), 10)
	dst = append(dst, '\n')
	for v := 0; v < g.N(); v++ {
		for i := 1; i <= g.Deg(v); i++ {
			q := g.P(v, i)
			if q.Less(graph.Port{Node: v, Num: i}) {
				continue
			}
			dst = append(dst, "conn "...)
			dst = strconv.AppendInt(dst, name(v), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, name(q.Node), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(q.Num), 10)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// wireCap bounds the size of g's wire form under any relabelling: a conn
// line is 9 bytes besides its two node names and two port numbers.
func wireCap(g *graph.Graph) int {
	digits := func(x int) int { return len(strconv.Itoa(x)) }
	return 16 + digits(g.N()) + g.M()*(9+2*digits(max(g.N()-1, 0))+2*digits(g.MaxDegree()))
}

// permutation returns a uniformly random relabelling of n nodes.
func permutation(seed int64, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// Response shapes, as query strings of POST /v1/run.
const (
	shapeSummary = iota
	shapeEdges
	shapeStream
)

var shapeNames = []string{"summary", "edges", "stream"}

func shapeQuery(shape int) string {
	switch shape {
	case shapeEdges:
		return "alg=auto&edges=1"
	case shapeStream:
		return "alg=auto&edges=1&stream=1"
	}
	return "alg=auto"
}

// coldShapes draws serve-cold's response shapes: in every block of ten
// requests six ask for the summary, three for the edge list and one for
// the NDJSON stream.
func coldShapes(rng *rand.Rand, n int) []int {
	block := []int{shapeSummary, shapeSummary, shapeSummary, shapeSummary, shapeSummary, shapeSummary,
		shapeEdges, shapeEdges, shapeEdges, shapeStream}
	out := make([]int, n)
	for i, j := range stratified(rng, n, len(block)) {
		out[i] = block[j]
	}
	return out
}
