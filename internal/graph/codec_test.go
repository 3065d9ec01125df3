package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSimpleGraph(rng, 2+rng.Intn(12), rng.Float64())
		var sb strings.Builder
		if err := WriteTo(&sb, g); err != nil {
			return false
		}
		h, err := ReadGraph(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCodecRoundTripMultigraph(t *testing.T) {
	b := NewBuilder(2)
	b.MustConnect(0, 1, 1, 2)
	b.MustConnect(0, 2, 1, 1)
	b.MustConnect(0, 3, 0, 3) // directed loop
	b.MustConnect(1, 3, 1, 4) // undirected loop
	g := b.MustBuild()
	var sb strings.Builder
	if err := WriteTo(&sb, g); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h, err := ReadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if !g.Equal(h) {
		t.Errorf("round trip changed the graph:\n%s", sb.String())
	}
}

func TestReadGraphErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"conn before nodes", "conn 0 1 1 1\nnodes 2"},
		{"duplicate nodes", "nodes 2\nnodes 3"},
		{"bad nodes", "nodes x"},
		{"negative nodes", "nodes -1"},
		{"short conn", "nodes 2\nconn 0 1 1"},
		{"out of range", "nodes 2\nconn 0 1 5 1"},
		{"double wire", "nodes 3\nconn 0 1 1 1\nconn 0 1 2 1"},
		{"hole in ports", "nodes 2\nconn 0 2 1 1"},
		{"unknown directive", "nodes 1\nfrobnicate"},
		{"nodes without count", "nodes"},
		{"nodes with trailing junk", "nodes 2 extra"},
		{"non-integer nodes", "nodes 2x"},
		{"non-integer conn field", "nodes 2\nconn 0 1 1 1x"},
		{"nodes overflow", "nodes 99999999999999999999"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadGraph(strings.NewReader(tc.input)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestReadGraphLimits checks the decode caps: a hostile input may not
// force allocation past MaxNodes or MaxPorts, and the rejection is
// distinguishable (ErrTooLarge) from a malformed input.
func TestReadGraphLimits(t *testing.T) {
	lim := Limits{MaxNodes: 4, MaxPorts: 6}
	t.Run("too many nodes", func(t *testing.T) {
		_, err := ReadGraphLimits(strings.NewReader("nodes 5\n"), lim)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("huge port number", func(t *testing.T) {
		_, err := ReadGraphLimits(strings.NewReader("nodes 2\nconn 0 1000000 1 1\n"), lim)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("port budget across lines", func(t *testing.T) {
		// Each line wires 2 ports; the fourth line exceeds the 6-port cap.
		input := "nodes 4\nconn 0 1 1 1\nconn 0 2 2 1\nconn 0 3 3 1\nconn 1 2 2 2\n"
		_, err := ReadGraphLimits(strings.NewReader(input), lim)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("within limits", func(t *testing.T) {
		g, err := ReadGraphLimits(strings.NewReader("nodes 4\nconn 0 1 1 1\nconn 2 1 3 1\n"), lim)
		if err != nil {
			t.Fatalf("ReadGraphLimits: %v", err)
		}
		if g.N() != 4 || g.M() != 2 {
			t.Errorf("got n=%d m=%d", g.N(), g.M())
		}
	})
	t.Run("default limits reject absurd sizes", func(t *testing.T) {
		_, err := ReadGraph(strings.NewReader("nodes 1000000000\n"))
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("malformed is not ErrTooLarge", func(t *testing.T) {
		_, err := ReadGraphLimits(strings.NewReader("nodes x\n"), lim)
		if err == nil || errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want a plain parse error", err)
		}
	})
}

func TestReadGraphCommentsAndWhitespace(t *testing.T) {
	input := `
# a comment
nodes 2

conn 0 1 1 1
`
	g, err := ReadGraph(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

// TestReadGraphFirstFailingLine pins the line the decoder blames when an
// input has several faults: the first failing line wins, as in a
// line-by-line decode, even though conn lines are wired only after the
// whole input has been parsed.
func TestReadGraphFirstFailingLine(t *testing.T) {
	lim := Limits{MaxNodes: 4, MaxPorts: 6}
	const doubleWire = "graph: line 3: graph: port (0,1) already connected to (1,1)"
	tests := []struct {
		name, input, want string
	}{
		{"double wiring before a malformed line", "nodes 3\nconn 0 1 1 1\nconn 0 1 2 1\nconn x\n", doubleWire},
		{"double wiring before an over-budget line", "nodes 4\nconn 0 1 1 1\nconn 0 1 2 1\nconn 3 7 3 8\n", doubleWire},
		{"double wiring before an unknown directive", "nodes 3\nconn 0 1 1 1\nconn 0 1 2 1\nfrobnicate\n", doubleWire},
		{"double wiring before a line over 64 KiB", "nodes 3\nconn 0 1 1 1\nconn 0 1 2 1\n#" + strings.Repeat("x", 70_000) + "\n", doubleWire},
		{"wired port before a missing peer node", "nodes 2\nconn 0 1 1 1\nconn 0 1 5 1\n", doubleWire},
		{"repeated line past the recorded-line cap", "nodes 2\n" + strings.Repeat("conn 0 1 1 1\n", 10_000), doubleWire},
		{"missing peer node", "nodes 2\nconn 0 1 5 1\n", "graph: line 2: graph: node 5 out of range [0,2)"},
		{"huge port before a missing peer node", "nodes 2\nconn 0 9223372036854775807 5 1\n", "graph: line 2: graph: node 5 out of range [0,2)"},
		{"port number zero", "nodes 2\nconn 0 1 1 0\n", "graph: line 2: graph: port number 0 must be >= 1"},
		{"hole in ports", "nodes 2\nconn 0 2 1 1\n", "graph: port (0,1) left unconnected"},
		{"bad field", "nodes 2\nconn 0 1 1 1x\n", `graph: line 2: bad conn directive "conn 0 1 1 1x": strconv.Atoi: parsing "1x": invalid syntax`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadGraphLimits(strings.NewReader(tc.input), lim)
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestReadGraphPortNumberOverflow checks that a port number near
// math.MaxInt is charged to the port budget instead of overflowing it.
func TestReadGraphPortNumberOverflow(t *testing.T) {
	for _, input := range []string{
		"nodes 2\nconn 0 9223372036854775807 1 1\n",
		"nodes 2\nconn 0 9223372036854775807 1 9223372036854775807\n",
		"nodes 1\nconn 0 9223372036854775807 0 9223372036854775806\n",
	} {
		_, err := ReadGraphLimits(strings.NewReader(input), Limits{MaxNodes: 4, MaxPorts: 6})
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%q: err = %v, want ErrTooLarge", input, err)
		}
	}
}

// TestReadGraphUnboundedLimits checks that limits at math.MaxInt, which
// disable the caps in effect, still decode.
func TestReadGraphUnboundedLimits(t *testing.T) {
	lim := Limits{MaxNodes: math.MaxInt, MaxPorts: math.MaxInt}
	g, err := ReadGraphLimits(strings.NewReader("nodes 3\nconn 0 1 1 1\nconn 1 2 2 1\n"), lim)
	if err != nil {
		t.Fatalf("ReadGraphLimits: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

// TestReadGraphAllocationBudget pins the decoder's allocation count: no
// allocation per line or per node, so one fixed budget holds for a small
// and a large graph alike.
func TestReadGraphAllocationBudget(t *testing.T) {
	const budget = 64
	for _, n := range []int{2_000, 200_000} {
		// A 3-regular graph: a cycle plus the chords v -- v+n/2.
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.MustAddEdge(v, (v+1)%n)
		}
		for v := 0; v < n/2; v++ {
			b.MustAddEdge(v, v+n/2)
		}
		var buf bytes.Buffer
		if err := WriteTo(&buf, b.MustBuild()); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		var err error
		allocs := testing.AllocsPerRun(2, func() {
			_, err = ReadGraph(bytes.NewReader(wire))
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > budget {
			t.Errorf("n=%d: decoding %d bytes allocated %.0f times, budget %d", n, len(wire), allocs, budget)
		}
	}
}
