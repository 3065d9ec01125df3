package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"eds/internal/graph"
	"eds/internal/sim"
	"eds/internal/verify"
)

// reference is one graph's expected outcome, computed at set-up on the
// sequential reference engine and checked with verify. Every solve and
// every 200 response for the graph must reproduce it.
type reference struct {
	alg      string
	n, m     int
	rounds   int
	messages int
	count    int
	d        *graph.EdgeSet
	pairs    [][2]int32 // D as sorted node pairs, smaller node first
	sharded  bool       // sim.EngineChoice at GOMAXPROCS = 2
	ports    int
}

// scheduled is implemented by the paper's algorithms: the round count
// is fixed by the degree alone.
type scheduled interface{ Rounds(d int) int }

func newReference(g *graph.Graph, a sim.Algorithm) (*reference, error) {
	res, err := sim.RunSequential(g, a)
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", a.Name(), err)
	}
	d, err := sim.EdgeSet(g, res.Outputs)
	if err != nil {
		return nil, fmt.Errorf("reference edge set of %s: %w", a.Name(), err)
	}
	if !verify.IsEdgeDominatingSet(g, d) {
		return nil, fmt.Errorf("reference output of %s is not an edge dominating set", a.Name())
	}
	if s, ok := a.(scheduled); ok {
		if want := s.Rounds(g.MaxDegree()); res.Rounds != want {
			return nil, fmt.Errorf("reference run of %s took %d rounds, its schedule %d", a.Name(), res.Rounds, want)
		}
	}
	ref := &reference{
		alg:      a.Name(),
		n:        g.N(),
		m:        g.M(),
		rounds:   res.Rounds,
		messages: res.Messages,
		count:    d.Count(),
		d:        d,
		ports:    g.NumPorts(),
		sharded:  sim.EngineChoice(g.N(), g.NumPorts(), 2) == "sharded",
	}
	for _, idx := range d.Indices() {
		e := g.Edge(idx)
		ref.pairs = append(ref.pairs, pairOf(int32(e.U()), int32(e.V())))
	}
	sortPairs(ref.pairs)
	return ref, nil
}

// checkSolve compares an in-process solve with the reference: same
// rounds, messages and edge set (hence the same |D|, and dominating).
func (r *reference) checkSolve(d *graph.EdgeSet, res *sim.Result) error {
	switch {
	case res.Rounds != r.rounds:
		return fmt.Errorf("%s: %d rounds, reference %d", r.alg, res.Rounds, r.rounds)
	case res.Messages != r.messages:
		return fmt.Errorf("%s: %d messages, reference %d", r.alg, res.Messages, r.messages)
	case !d.Equal(r.d):
		return fmt.Errorf("%s: edge set differs from the reference (%d vs %d edges)", r.alg, d.Count(), r.count)
	}
	return nil
}

// runResponse mirrors the JSON body of POST /v1/run.
type runResponse struct {
	Algorithm  string     `json:"algorithm"`
	N          int        `json:"n"`
	M          int        `json:"m"`
	Rounds     int        `json:"rounds"`
	Messages   int        `json:"messages"`
	Edges      int        `json:"edges"`
	Dominating bool       `json:"dominating"`
	EdgeList   [][2]int32 `json:"edge_list"`
}

func (r *reference) checkSummary(s *runResponse) error {
	switch {
	case s.Algorithm != r.alg:
		return fmt.Errorf("algorithm %q, reference %q", s.Algorithm, r.alg)
	case s.N != r.n || s.M != r.m:
		return fmt.Errorf("graph %d/%d nodes/edges, reference %d/%d", s.N, s.M, r.n, r.m)
	case s.Rounds != r.rounds:
		return fmt.Errorf("%s: %d rounds, reference %d", r.alg, s.Rounds, r.rounds)
	case s.Messages != r.messages:
		return fmt.Errorf("%s: %d messages, reference %d", r.alg, s.Messages, r.messages)
	case s.Edges != r.count:
		return fmt.Errorf("%s: |D| = %d, reference %d", r.alg, s.Edges, r.count)
	case !s.Dominating:
		return fmt.Errorf("%s: response says dominating=false", r.alg)
	}
	return nil
}

// checkBody checks a 200 body of the given shape. inv maps the body's
// node names back to the reference graph's (nil: identical names). An
// edge list must equal the reference's dominating set edge for edge,
// which makes it feasible because the reference was verified.
func (r *reference) checkBody(body []byte, shape int, inv []int32) error {
	var s runResponse
	var list [][2]int32
	if shape == shapeStream {
		head, rest, _ := bytes.Cut(body, []byte("\n"))
		if err := json.Unmarshal(head, &s); err != nil {
			return fmt.Errorf("stream summary line: %v", err)
		}
		var err error
		if list, err = parseEdgeLines(rest); err != nil {
			return err
		}
	} else {
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("response body: %v", err)
		}
		list = s.EdgeList
	}
	if err := r.checkSummary(&s); err != nil {
		return err
	}
	if shape == shapeSummary {
		if len(list) != 0 {
			return fmt.Errorf("summary response carries %d edges", len(list))
		}
		return nil
	}
	if len(list) != r.count {
		return fmt.Errorf("%s: %d edges listed, reference %d", r.alg, len(list), r.count)
	}
	got := make([][2]int32, len(list))
	for i, e := range list {
		u, v := e[0], e[1]
		if inv != nil {
			if u < 0 || int(u) >= len(inv) || v < 0 || int(v) >= len(inv) {
				return fmt.Errorf("edge [%d,%d] names a node outside the graph", u, v)
			}
			u, v = inv[u], inv[v]
		}
		got[i] = pairOf(u, v)
	}
	sortPairs(got)
	if !slices.Equal(got, r.pairs) {
		return fmt.Errorf("%s: edge list differs from the reference dominating set", r.alg)
	}
	return nil
}

// parseEdgeLines parses NDJSON edge lines of the form [u,v].
func parseEdgeLines(b []byte) ([][2]int32, error) {
	var out [][2]int32
	for len(b) > 0 {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte("\n"))
		if len(line) == 0 {
			continue
		}
		if len(line) < 5 || line[0] != '[' || line[len(line)-1] != ']' {
			return nil, fmt.Errorf("malformed stream line %q", line)
		}
		us, vs, ok := bytes.Cut(line[1:len(line)-1], []byte(","))
		if !ok {
			return nil, fmt.Errorf("malformed stream line %q", line)
		}
		u, err1 := strconv.Atoi(string(us))
		v, err2 := strconv.Atoi(string(vs))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("malformed stream line %q", line)
		}
		out = append(out, [2]int32{int32(u), int32(v)})
	}
	return out, nil
}

func pairOf(u, v int32) [2]int32 {
	if v < u {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func sortPairs(p [][2]int32) {
	slices.SortFunc(p, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
}

func inverse(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for v, x := range perm {
		inv[x] = int32(v)
	}
	return inv
}
