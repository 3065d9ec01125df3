package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// WriteTo serialises the graph in a line-oriented text format:
//
//	# comments and blank lines are ignored
//	nodes <N>
//	conn <v> <i> <u> <j>    # p(v,i) = (u,j); one line per orbit
//
// The format round-trips through ReadGraph and is the interchange format
// of the edsrun tool's -graph file:PATH option and the edsd server's
// request body. The output is canonical: a fixed line order with no
// comments or extra whitespace, so byte equality of two WriteTo outputs
// is graph equality.
func WriteTo(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "nodes %d\n", g.N())
	for v := 0; v < g.N(); v++ {
		for i := 1; i <= g.Deg(v); i++ {
			q := g.P(v, i)
			self := Port{Node: v, Num: i}
			// Emit each orbit once, from its canonical end.
			if q.Less(self) {
				continue
			}
			fmt.Fprintf(bw, "conn %d %d %d %d\n", v, i, q.Node, q.Num)
		}
	}
	return bw.Flush()
}

// Limits bounds the size of graphs accepted by ReadGraphLimits. The
// codec parses untrusted network bytes (the edsd server feeds request
// bodies straight into it), so both dimensions that drive allocation are
// capped: the node count, and the total number of ports (a single
// "conn 0 999999999 ..." line would otherwise allocate gigabytes,
// because each node gets ports up to the highest port number named).
// Non-positive fields fall back to the DefaultLimits value.
type Limits struct {
	MaxNodes int
	MaxPorts int
}

// DefaultLimits is the cap applied by ReadGraph: large enough for every
// experiment in the repo (million-node graphs), small enough that a
// hostile input cannot OOM the process.
var DefaultLimits = Limits{MaxNodes: 1 << 22, MaxPorts: 1 << 24}

// ErrTooLarge is wrapped by decode errors caused by an input exceeding
// the size limits, letting servers distinguish "too big" (413) from
// "malformed" (400).
var ErrTooLarge = errors.New("graph: input exceeds decode limits")

// ReadGraph parses the WriteTo format under DefaultLimits.
func ReadGraph(r io.Reader) (*Graph, error) {
	return ReadGraphLimits(r, DefaultLimits)
}

// ReadGraphLimits parses the WriteTo format, rejecting inputs that
// declare more than lim.MaxNodes nodes or wire more than lim.MaxPorts
// ports (errors wrapping ErrTooLarge). Parsing is strict: every numeric
// field must be a whole base-10 integer, and any line longer than the
// scanner budget (64 KiB) is an error. Errors name the first offending
// line, as a line-by-line decode would. Allocation is proportional to
// the declared size, never to attacker-controlled port numbers beyond
// the cap.
//
// The decoder parses each line in place and records each conn line's
// numbers in one flat slice; a second pass then wires them straight into
// the graph's flat arrays, each node sized by the highest port number the
// input names for it. A decode therefore allocates O(1) objects whatever
// the input's size, and the graph it returns is O(1) heap objects.
func ReadGraphLimits(r io.Reader, lim Limits) (*Graph, error) {
	if lim.MaxNodes <= 0 {
		lim.MaxNodes = DefaultLimits.MaxNodes
	}
	if lim.MaxPorts <= 0 {
		lim.MaxPorts = DefaultLimits.MaxPorts
	}
	d := decoder{lim: lim, n: -1}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		if err := d.parseLine(sc.Bytes(), line); err != nil {
			return nil, d.firstError(err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, d.firstError(err)
	}
	if d.n < 0 {
		return nil, fmt.Errorf("graph: missing nodes directive")
	}
	off, ports, err := d.fill()
	if err != nil {
		return nil, err
	}
	return newGraph(off, ports)
}

// connLine is one recorded "conn v i u j" line.
type connLine struct {
	v, i, u, j, line int
}

// errConnLine stops parsing at a conn line that is sure to fail to wire:
// it names a missing node or a port number below 1, or it is one conn
// line more than there are ports, so some recorded line wires a port
// twice. Parsing stops there, and firstError reports the wiring error of
// the first failing line instead.
var errConnLine = errors.New("graph: conn line cannot be wired")

// decoder is the state of one ReadGraphLimits call.
type decoder struct {
	lim     Limits
	n       int        // declared node count; -1 before the nodes directive
	maxPort []int      // per node, the highest port number named so far
	total   int        // sum of maxPort: the ports the graph will have
	conns   []connLine // recorded conn lines, in input order
}

// parseLine parses one input line in place.
func (d *decoder) parseLine(raw []byte, line int) error {
	text := bytes.TrimSpace(raw)
	if len(text) == 0 || text[0] == '#' {
		return nil
	}
	var fields [6][]byte
	nf := splitFields(text, fields[:])
	switch string(fields[0]) {
	case "nodes":
		if d.n >= 0 {
			return fmt.Errorf("graph: line %d: duplicate nodes directive", line)
		}
		if nf != 2 {
			return fmt.Errorf("graph: line %d: bad nodes directive %q", line, text)
		}
		n, ok := atoi(fields[1])
		if !ok {
			return fmt.Errorf("graph: line %d: bad nodes directive %q", line, text)
		}
		if n < 0 {
			return fmt.Errorf("graph: line %d: negative node count", line)
		}
		if n > d.lim.MaxNodes {
			return fmt.Errorf("%w: line %d: %d nodes > limit %d", ErrTooLarge, line, n, d.lim.MaxNodes)
		}
		d.n = n
		d.maxPort = make([]int, n)
	case "conn":
		if d.n < 0 {
			return fmt.Errorf("graph: line %d: conn before nodes", line)
		}
		if nf != 5 {
			return fmt.Errorf("graph: line %d: bad conn directive %q", line, text)
		}
		var nums [4]int
		for k, f := range fields[1:5] {
			x, ok := atoi(f)
			if !ok {
				_, err := strconv.Atoi(string(f))
				return fmt.Errorf("graph: line %d: bad conn directive %q: %v", line, text, err)
			}
			nums[k] = x
		}
		return d.conn(connLine{v: nums[0], i: nums[1], u: nums[2], j: nums[3], line: line})
	default:
		return fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
	}
	return nil
}

// conn records one conn line after charging the ports it would add to
// the port budget.
func (d *decoder) conn(c connLine) error {
	v, i, u, j := c.v, c.i, c.u, c.j
	if v < 0 || v >= d.n || u < 0 || u >= d.n || i < 1 || j < 1 {
		d.record(c)
		return errConnLine
	}
	// Size gate: each end grows its node to the named port number, so
	// that growth is charged to the port budget. Both terms are checked
	// against what is left of the budget, so huge port numbers cannot
	// overflow the sum.
	growV := max(i-d.maxPort[v], 0)
	high := d.maxPort[u]
	if u == v {
		high = max(high, i)
	}
	growU := max(j-high, 0)
	if left := d.lim.MaxPorts - d.total; growV > left || growU > left-growV {
		return fmt.Errorf("%w: line %d: more than %d ports", ErrTooLarge, c.line, d.lim.MaxPorts)
	}
	d.total += growV + growU
	d.maxPort[v] = max(d.maxPort[v], i)
	d.maxPort[u] = max(d.maxPort[u], j)
	d.record(c)
	if len(d.conns) > d.lim.MaxPorts {
		// Each line that wires takes at least one port of its own.
		return errConnLine
	}
	return nil
}

// record appends c to the recorded lines, doubling their capacity when
// full so a long input costs a logarithmic number of allocations; they
// never need room for more than MaxPorts+1 lines. Parsing stops once
// there are more than MaxPorts, so room is never negative.
func (d *decoder) record(c connLine) {
	if len(d.conns) == cap(d.conns) {
		room := d.lim.MaxPorts - len(d.conns) // MaxPorts+1 may overflow
		d.conns = slices.Grow(d.conns, 1+min(max(len(d.conns), 256)-1, room))
	}
	d.conns = append(d.conns, c)
}

// firstError returns the error to report when parsing stops at err. A
// recorded conn line that fails to wire comes first: a line-by-line
// decode would have stopped there.
func (d *decoder) firstError(err error) error {
	if _, _, ferr := d.fill(); ferr != nil {
		return ferr
	}
	return err
}

// fill wires the recorded conn lines, in input order, into flat arrays
// laid out as in Graph, checking each line as Builder.Connect does and
// reporting the first failure at its line.
func (d *decoder) fill() ([]int32, []Port, error) {
	if err := checkPortSpace(d.total); err != nil {
		return nil, nil, err
	}
	off := make([]int32, d.n+1)
	for v, k := range d.maxPort {
		off[v+1] = off[v] + int32(k)
	}
	ports := make([]Port, d.total)
	for _, c := range d.conns {
		err := portFree(off, ports, c.v, c.i)
		if err == nil && (c.u != c.v || c.j != c.i) {
			err = portFree(off, ports, c.u, c.j)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", c.line, err)
		}
		ports[int(off[c.v])+c.i-1] = Port{Node: c.u, Num: c.j}
		ports[int(off[c.u])+c.j-1] = Port{Node: c.v, Num: c.i}
	}
	return off, ports, nil
}

// portFree is Builder.ensurePort on the flat arrays: it reports whether
// (v, i) names a port that is not yet wired. A port past v's final size
// has not been wired yet.
func portFree(off []int32, ports []Port, v, i int) error {
	if err := checkPortName(v, i, len(off)-1); err != nil {
		return err
	}
	if i <= int(off[v+1]-off[v]) {
		if q := ports[int(off[v])+i-1]; q.Num != 0 {
			return errWired(v, i, q)
		}
	}
	return nil
}

// splitFields splits s around runs of white space, exactly as
// strings.Fields does, into dst without allocating. It stops after
// len(dst) fields and returns how many it stored.
func splitFields(s []byte, dst [][]byte) int {
	nf, start := 0, -1
	for k := 0; k < len(s); {
		c, size := s[k], 1
		space := asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(s[k:])
			space = unicode.IsSpace(r)
		}
		if space && start >= 0 {
			dst[nf] = s[start:k]
			if nf++; nf == len(dst) {
				return nf
			}
			start = -1
		} else if !space && start < 0 {
			start = k
		}
		k += size
	}
	if start >= 0 {
		dst[nf] = s[start:]
		nf++
	}
	return nf
}

// asciiSpace marks the ASCII bytes that unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi parses a whole base-10 integer with an optional sign, accepting
// exactly the inputs strconv.Atoi accepts, without allocating.
func atoi(s []byte) (int, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	const limit = uint64(1) << 63 // magnitude of math.MinInt64
	var x uint64
	for _, c := range s {
		if c < '0' || c > '9' || x > limit/10 {
			return 0, false
		}
		if x = x*10 + uint64(c-'0'); x > limit {
			return 0, false
		}
	}
	if neg {
		return -int(x), true
	}
	if x == limit {
		return 0, false
	}
	return int(x), true
}
