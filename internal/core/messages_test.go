package core

import (
	"fmt"
	"testing"

	"eds/internal/gen"
	"eds/internal/sim"
)

// The message kinds by the fields they carry. Together with kindLabel
// and kindID they are every kind the algorithms send;
// TestMessageKindsNamed keeps the lists complete.
var (
	tagKinds  = []msgKind{kindMark, kindProposal, kindPoint}
	flagKinds = []msgKind{kindPropose, kindRespond, kindProbe, kindProbeRespond, kindStatus, kindAnswer, kindIDStatus}
)

func TestMessageKindsNamed(t *testing.T) {
	all := append(append([]msgKind{kindLabel, kindID}, tagKinds...), flagKinds...)
	names := map[string]msgKind{}
	for _, k := range all {
		name := k.String()
		if int(k) >= len(kindNames) || kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
		if other, dup := names[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", other, k, name)
		}
		names[name] = k
	}
	named := 0
	for _, name := range kindNames {
		if name != "" {
			named++
		}
	}
	if named != len(all) {
		t.Errorf("%d kinds are named but the codec tests cover %d", named, len(all))
	}
	if got := KindName(0); got != "kind(0)" {
		t.Errorf("KindName(0) = %q, want kind(0)", got)
	}
}

// FuzzMessageCodec checks every kind's encoder against its decoder:
// arbitrary in-range fields round-trip, the 2^31 − 1 limits included,
// no encoding is the empty message 0, and no kind decodes as another.
func FuzzMessageCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), false)
	f.Add(uint32(1), uint32(3), true)
	f.Add(uint32(fieldMask), uint32(fieldMask), true)
	f.Add(uint32(fieldMask), uint32(0), false)
	f.Add(^uint32(0), ^uint32(0), true)
	f.Fuzz(func(t *testing.T, a, b uint32, flag bool) {
		// Fields are in range by construction: [0, 2^31).
		x, y := int(a&fieldMask), int(b&fieldMask)
		check := func(m sim.Message, want msgKind) {
			t.Helper()
			if m == 0 {
				t.Fatalf("%v encoded as the empty message", want)
			}
			if got := kindOf(m); got != want {
				t.Fatalf("%#x: encoded as %v, decodes as %v", uint64(m), want, got)
			}
		}

		m := labelMsg(x, y)
		check(m, kindLabel)
		if port, deg := labelOf(m); port != x || deg != y {
			t.Fatalf("label(%d, %d) decoded as (%d, %d)", x, y, port, deg)
		}

		m = idMsg(x)
		check(m, kindID)
		if id := idOf(m); id != x {
			t.Fatalf("id(%d) decoded as %d", x, id)
		}

		for _, k := range flagKinds {
			m := flagMsg(k, flag)
			check(m, k)
			if got := flagOf(m); got != flag {
				t.Fatalf("%v(%v) decoded flag %v", k, flag, got)
			}
		}
		for _, k := range tagKinds {
			m := tagMsg(k)
			check(m, k)
			if flagOf(m) {
				t.Fatalf("%v carries a flag", k)
			}
		}
	})
}

// TestCongestMessageShape decodes every message each algorithm sends on
// the equivalence corpus and checks its fields against the algorithm's
// bound. A message must re-encode to exactly its own word from its
// decoded fields, so it carries no bits beyond them:
//
//   - PortOne sends a bare tag;
//   - RegularOdd and General send labels of the sender's own port and
//     degree, port ≤ degree ≤ Δ, and otherwise one flag per message;
//   - IDMatching sends identifiers below n, and otherwise one flag;
//   - VertexCover3 sends one flag per message.
//
// So the paper's algorithms send O(log Δ) bits per message and
// IDMatching O(log n): they are CONGEST algorithms. The width of the
// word itself would say nothing about that; its decoded fields do.
func TestCongestMessageShape(t *testing.T) {
	type fieldCheck func(v, port int, m sim.Message) bool
	type shapeCase struct {
		alg    sim.Algorithm
		shapes map[msgKind]fieldCheck // the kinds alg may send
	}
	flag := func(_, _ int, m sim.Message) bool { return m == flagMsg(kindOf(m), flagOf(m)) }
	tag := func(_, _ int, m sim.Message) bool { return m == tagMsg(kindOf(m)) }
	for _, ng := range gen.EquivalenceCorpus() {
		g := ng.G
		delta := max(g.MaxDegree(), 2)
		label := func(v, port int, m sim.Message) bool {
			p, d := labelOf(m)
			return m == labelMsg(p, d) && p == port && d == g.Deg(v) && p <= d && d <= delta
		}
		id := func(_, _ int, m sim.Message) bool { return m == idMsg(idOf(m)) && idOf(m) < g.N() }
		cases := []shapeCase{
			{PortOne{}, map[msgKind]fieldCheck{kindMark: tag}},
			{RegularOdd{}, map[msgKind]fieldCheck{kindLabel: label,
				kindPropose: flag, kindRespond: flag, kindProbe: flag, kindProbeRespond: flag}},
			{NewGeneral(delta), map[msgKind]fieldCheck{kindLabel: label,
				kindPropose: flag, kindRespond: flag, kindStatus: flag, kindProposal: tag, kindAnswer: flag}},
			{VertexCover3{Delta: delta}, map[msgKind]fieldCheck{kindProposal: tag, kindAnswer: flag}},
		}
		// IDMatching needs a simple graph: over a self-loop a node
		// points at itself, never matches, and never stops.
		if g.IsSimple() {
			cases = append(cases, shapeCase{IDMatching{}, map[msgKind]fieldCheck{kindID: id, kindIDStatus: flag, kindPoint: tag}})
		}
		for _, tc := range cases {
			t.Run(ng.Name+"/"+tc.alg.Name(), func(t *testing.T) {
				checked := 0
				var bad []string
				hook := func(round int, sent [][]sim.Message) {
					for v, row := range sent {
						for i, m := range row {
							if m == 0 {
								continue
							}
							if check, ok := tc.shapes[kindOf(m)]; ok && check(v, i+1, m) {
								checked++
							} else if len(bad) < 5 {
								bad = append(bad, fmt.Sprintf("round %d: node %d port %d sent %#x (%v)", round, v, i+1, uint64(m), kindOf(m)))
							}
						}
					}
				}
				res, err := sim.RunSequential(g, tc.alg, sim.WithRoundHook(hook))
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bad {
					t.Error(b)
				}
				if len(bad) == 0 && checked != res.Messages {
					t.Errorf("checked %d messages, the run sent %d", checked, res.Messages)
				}
			})
		}
	}
}
