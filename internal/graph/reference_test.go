package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// referenceReadGraphLimits is the straightforward decoder that
// ReadGraphLimits replaced, kept as a test oracle: it wires the graph
// line by line through Builder.Connect and then calls Build. The
// production decoder must agree with it on every input — the same accept
// or reject, the same error text, and on acceptance an Equal graph.
// Its port-budget gate charges the two ends' growth one at a time, as
// ReadGraphLimits does: a plain sum overflows for port numbers near
// math.MaxInt and lets such a line past the budget.
func referenceReadGraphLimits(r io.Reader, lim Limits) (*Graph, error) {
	if lim.MaxNodes <= 0 {
		lim.MaxNodes = DefaultLimits.MaxNodes
	}
	if lim.MaxPorts <= 0 {
		lim.MaxPorts = DefaultLimits.MaxPorts
	}
	sc := bufio.NewScanner(r)
	var b *Builder
	var maxPortSeen []int // per node, the highest port number wired so far
	totalPorts := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "nodes":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate nodes directive", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: bad nodes directive %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad nodes directive %q", line, text)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative node count", line)
			}
			if n > lim.MaxNodes {
				return nil, fmt.Errorf("%w: line %d: %d nodes > limit %d", ErrTooLarge, line, n, lim.MaxNodes)
			}
			b = NewBuilder(n)
			maxPortSeen = make([]int, n)
		case "conn":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: conn before nodes", line)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("graph: line %d: bad conn directive %q", line, text)
			}
			var nums [4]int
			for k, f := range fields[1:] {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad conn directive %q: %v", line, text, err)
				}
				nums[k] = v
			}
			v, i, u, j := nums[0], nums[1], nums[2], nums[3]
			// Size gate before Connect: the builder grows a node's port
			// table up to the named port number, so the growth both ends
			// would cause is accounted against the port budget first.
			if v >= 0 && v < b.N() && u >= 0 && u < b.N() && i >= 1 && j >= 1 {
				// The two terms are charged one at a time: their plain sum
				// overflows for port numbers near math.MaxInt.
				growV, growU := 0, 0
				if i > maxPortSeen[v] {
					growV = i - maxPortSeen[v]
				}
				high := maxPortSeen[u]
				if u == v && i > high {
					high = i
				}
				if j > high {
					growU = j - high
				}
				if left := lim.MaxPorts - totalPorts; growV > left || growU > left-growV {
					return nil, fmt.Errorf("%w: line %d: more than %d ports", ErrTooLarge, line, lim.MaxPorts)
				}
				grow := growV + growU
				totalPorts += grow
				if i > maxPortSeen[v] {
					maxPortSeen[v] = i
				}
				if j > maxPortSeen[u] {
					maxPortSeen[u] = j
				}
			}
			if err := b.Connect(v, i, u, j); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing nodes directive")
	}
	return b.Build()
}
