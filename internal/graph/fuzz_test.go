package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzReadGraph feeds arbitrary bytes to the codec, which now parses
// untrusted network input for the edsd server. The decoder must never
// panic and must never allocate beyond the configured limits; any graph
// it does accept must validate, and the WriteTo → ReadGraph round trip
// of an accepted graph must be the identity.
func FuzzReadGraph(f *testing.F) {
	f.Add([]byte("nodes 2\nconn 0 1 1 1\n"))
	f.Add([]byte("nodes 3\nconn 0 1 1 1\nconn 1 2 2 1\n"))
	f.Add([]byte("nodes 1\nconn 0 1 0 1\n"))              // directed loop
	f.Add([]byte("nodes 1\nconn 0 1 0 2\n"))              // undirected loop
	f.Add([]byte("# comment\n\nnodes 2\nconn 0 1 1 1\n")) // comments + blanks
	f.Add([]byte("nodes"))                                // truncated directive
	f.Add([]byte("nodes 99999999999999999999"))           // overflows int
	f.Add([]byte("nodes 2\nconn 0 1000000 1 1\n"))        // huge port number
	f.Add([]byte("nodes -5\n"))
	f.Add([]byte("nodes 2\nnodes 2\n"))
	f.Add([]byte("conn 0 1 1 1\n"))
	// Line endings, separators and number forms the in-place parser must
	// treat exactly as strings.Fields and strconv.Atoi do.
	f.Add([]byte("nodes 2\r\nconn 0 1 1 1\r\n"))
	f.Add([]byte("nodes\t2\nconn\t0 1\t1\t1\n"))
	f.Add([]byte("\u00a0nodes\u00a02\u2003\nconn 0\u20031\u00a01 1\n"))
	f.Add([]byte("nodes +7\nconn -0 1 007 1\n"))
	f.Add([]byte("nodes 2\nconn 0 1 1 12345678901234567890\n"))
	f.Add([]byte("nodes 2\nconn 0 1 1 1"))
	f.Add([]byte("nodes 0\n"))
	f.Add([]byte("nodes 1\n# " + strings.Repeat("x", 70_000) + "\n"))
	// The first failing line wins, even when a later line is malformed
	// or names a missing node.
	f.Add([]byte("nodes 3\nconn 0 1 1 1\nconn 0 1 2 1\nconn x\n"))
	f.Add([]byte("nodes 2\nconn 0 1 1 1\nconn 0 1 5 1\n"))
	// More conn lines than the budget has ports.
	f.Add([]byte("nodes 2\n" + strings.Repeat("conn 0 1 1 1\n", 10_000)))
	// A port number that overflows a plain sum of the two ends' growth.
	f.Add([]byte("nodes 2\nconn 0 9223372036854775807 1 1\n"))
	// A port number near math.MaxInt on a line that fails on its peer.
	f.Add([]byte("nodes 2\nconn 0 9223372036854775807 5 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Tight limits keep the fuzzer fast and prove the caps bound
		// allocation no matter what the input declares.
		lim := Limits{MaxNodes: 64, MaxPorts: 256}
		// The in-place decoder must behave as the line-by-line reference
		// does, also under a budget small enough for the recorded-line
		// cap to matter.
		for _, l := range []Limits{lim, {MaxNodes: 4, MaxPorts: 6}} {
			checkAgainstReference(t, data, l)
		}
		g, err := ReadGraphLimits(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if g.N() > lim.MaxNodes || g.NumPorts() > lim.MaxPorts {
			t.Fatalf("limits not enforced: n=%d ports=%d", g.N(), g.NumPorts())
		}
		var buf bytes.Buffer
		if err := WriteTo(&buf, g); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		canonical := buf.String()
		h, err := ReadGraphLimits(strings.NewReader(canonical), lim)
		if err != nil {
			t.Fatalf("re-reading WriteTo output: %v", err)
		}
		if !g.Equal(h) {
			t.Fatalf("round trip is not the identity:\n%s", canonical)
		}
		// Canonical form is a fixed point: serialising again must yield
		// the same bytes (the edsd result cache keys on them).
		buf.Reset()
		if err := WriteTo(&buf, h); err != nil {
			t.Fatalf("WriteTo(round-tripped): %v", err)
		}
		if buf.String() != canonical {
			t.Fatalf("canonical form is not a fixed point:\n%q\nvs\n%q", canonical, buf.String())
		}
	})
}

// checkAgainstReference decodes data under lim with ReadGraphLimits and
// with referenceReadGraphLimits and requires the same outcome: the same
// error text (so the same line) and ErrTooLarge class, or Equal graphs
// with the same Digest.
func checkAgainstReference(t *testing.T, data []byte, lim Limits) {
	t.Helper()
	g, err := ReadGraphLimits(bytes.NewReader(data), lim)
	ref, refErr := referenceReadGraphLimits(bytes.NewReader(data), lim)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("limits %+v: error %v, reference error %v", lim, err, refErr)
	case err != nil:
		if err.Error() != refErr.Error() {
			t.Fatalf("limits %+v: error %q, reference error %q", lim, err, refErr)
		}
		if errors.Is(err, ErrTooLarge) != errors.Is(refErr, ErrTooLarge) {
			t.Fatalf("limits %+v: ErrTooLarge class differs: %v vs reference %v", lim, err, refErr)
		}
	case !g.Equal(ref) || Digest(g) != Digest(ref):
		t.Fatalf("limits %+v: decoded graph differs from the reference's", lim)
	}
}

// FuzzBuilder feeds arbitrary connect sequences to the builder: whatever
// subset of operations succeeds must still produce a valid involution,
// and Build must never return a structurally broken graph.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 1, 0, 1})             // directed loop
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2}) // undirected loops
	f.Add([]byte{3, 9, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 5
		b := NewBuilder(n)
		wired := 0
		for i := 0; i+3 < len(data); i += 4 {
			u := int(data[i]) % n
			pi := 1 + int(data[i+1])%6
			v := int(data[i+2]) % n
			pj := 1 + int(data[i+3])%6
			if err := b.Connect(u, pi, v, pj); err == nil {
				wired++
			}
		}
		g, err := b.Build()
		if err != nil {
			// Holes in the port space are legitimate build failures.
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}
		total := 0
		for v := 0; v < g.N(); v++ {
			total += g.Deg(v)
		}
		// Handshake: every edge has two port endpoints except directed
		// loops, which have one.
		directed := 0
		for _, e := range g.Edges() {
			if e.IsDirectedLoop() {
				directed++
			}
		}
		if total != 2*(g.M()-directed)+directed {
			t.Fatalf("handshake violated: ports %d, edges %d (%d directed loops)", total, g.M(), directed)
		}
	})
}

// FuzzRoutingTable builds graphs from arbitrary connect sequences and
// checks that the flat routing view is a self-inverse permutation of the
// global port space consistent with the involution g.P(v, i).
func FuzzRoutingTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 2, 2, 1})
	f.Add([]byte{0, 1, 0, 1})             // directed loop
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2}) // undirected loops
	f.Add([]byte{2, 1, 3, 1, 3, 2, 4, 1, 4, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 6
		b := NewBuilder(n)
		for i := 0; i+3 < len(data); i += 4 {
			u := int(data[i]) % n
			pi := 1 + int(data[i+1])%7
			v := int(data[i+2]) % n
			pj := 1 + int(data[i+3])%7
			b.Connect(u, pi, v, pj) // sparse port numbers leave holes; Build rejects them
		}
		g, err := b.Build()
		if err != nil {
			return
		}
		off := g.PortOffsets()
		route := g.RoutingTable()
		total := 0
		for v := 0; v < g.N(); v++ {
			if int(off[v]) != total {
				t.Fatalf("PortOffsets[%d] = %d, want %d", v, off[v], total)
			}
			total += g.Deg(v)
		}
		if int(off[g.N()]) != total || len(route) != total {
			t.Fatalf("port space size mismatch: off[n]=%d len(route)=%d want %d", off[g.N()], len(route), total)
		}
		seen := make([]bool, total)
		for j := range route {
			p := route[j]
			if p < 0 || int(p) >= total {
				t.Fatalf("route[%d] = %d out of range [0,%d)", j, p, total)
			}
			if route[p] != int32(j) {
				t.Fatalf("not self-inverse: route[%d]=%d, route[%d]=%d", j, p, p, route[p])
			}
			if seen[p] {
				t.Fatalf("route is not a permutation: %d hit twice", p)
			}
			seen[p] = true
		}
		for v := 0; v < g.N(); v++ {
			for i := 1; i <= g.Deg(v); i++ {
				q := g.P(v, i)
				if want := off[q.Node] + int32(q.Num-1); route[off[v]+int32(i-1)] != want {
					t.Fatalf("route for port (%d,%d) disagrees with P: got %d, want %d",
						v, i, route[off[v]+int32(i-1)], want)
				}
			}
		}
	})
}

// FuzzEdgeSetOps checks the bitset against a map-based model.
func FuzzEdgeSetOps(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 1, 63, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		const m = 130
		s := NewEdgeSet(m)
		model := map[int]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			idx := int(data[i+1]) % m
			if data[i]%2 == 0 {
				s.Add(idx)
				model[idx] = true
			} else {
				s.Remove(idx)
				delete(model, idx)
			}
		}
		if s.Count() != len(model) {
			t.Fatalf("Count = %d, model %d", s.Count(), len(model))
		}
		for idx := 0; idx < m; idx++ {
			if s.Has(idx) != model[idx] {
				t.Fatalf("Has(%d) = %v, model %v", idx, s.Has(idx), model[idx])
			}
		}
	})
}
