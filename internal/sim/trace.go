package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Trace records the message profile of an execution round by round:
// how many messages were sent and of which kinds. Attach it to a
// sequential, sharded, or auto run with its Option; it is the machinery
// behind the per-phase communication profiles in the experiment reports.
// Traces are engine-independent: the sharded engine produces the exact
// trace the sequential reference would (a property test in
// engines_test.go enforces it).
type Trace struct {
	Rounds []RoundTrace
}

// RoundTrace is one round's profile.
type RoundTrace struct {
	Round    int
	Messages int
	ByKind   map[string]int
}

// NewTrace returns an empty trace and the option that attaches it to a
// run. kind names the kind of each nonzero message; a Message is the
// algorithm's own encoding, so the package that defines the messages
// supplies it (core.KindName for the paper's algorithms). The
// sequential and sharded engines (and RunAuto, which only ever picks
// between the two) support tracing; the concurrent engine rejects
// traced runs with ErrHookUnsupported.
func NewTrace(kind func(Message) string) (*Trace, Option) {
	t := &Trace{}
	return t, WithRoundHook(func(round int, sent [][]Message) {
		rt := RoundTrace{Round: round, ByKind: make(map[string]int)}
		for _, row := range sent {
			for _, m := range row {
				if m != 0 {
					rt.Messages++
					rt.ByKind[kind(m)]++
				}
			}
		}
		t.Rounds = append(t.Rounds, rt)
	})
}

// TotalMessages sums the messages over all rounds.
func (t *Trace) TotalMessages() int {
	total := 0
	for _, r := range t.Rounds {
		total += r.Messages
	}
	return total
}

// KindTotals aggregates the per-kind counts over the whole run.
func (t *Trace) KindTotals() map[string]int {
	out := make(map[string]int)
	for _, r := range t.Rounds {
		for k, c := range r.ByKind {
			out[k] += c
		}
	}
	return out
}

// String renders a compact profile: total rounds and messages, the
// per-kind totals, and the busiest round.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds: %d, messages: %d\n", len(t.Rounds), t.TotalMessages())
	totals := t.KindTotals()
	kinds := make([]string, 0, len(totals))
	for k := range totals {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  %-24s %6d\n", k, totals[k])
	}
	busiest := -1
	for i, r := range t.Rounds {
		if busiest == -1 || r.Messages > t.Rounds[busiest].Messages {
			busiest = i
		}
	}
	if busiest >= 0 {
		fmt.Fprintf(&sb, "busiest round: %d with %d messages\n",
			t.Rounds[busiest].Round, t.Rounds[busiest].Messages)
	}
	return sb.String()
}
