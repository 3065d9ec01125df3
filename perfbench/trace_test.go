package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		// Two overlapping children cover [10, 50] once.
		{ID: 2, Parent: 1, Layer: "graph", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "sim", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Layer: "server", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Layer: "verify", Start: 25, End: 35},
		// A second operation's root with no children.
		{ID: 6, Layer: "edsd", Start: 200, End: 207},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench":  100 - 40 - 10,
		"graph":  20,
		"sim":    30 - 10,
		"server": 30,
		"verify": 10,
		"edsd":   7,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d layers, want %d: %v", len(got), len(want), got)
	}
}

func TestCoveredUnion(t *testing.T) {
	p := span{Start: 0, End: 10}
	for _, c := range []struct {
		kids []span
		want int64
	}{
		{nil, 0},
		{[]span{{Start: 2, End: 4}, {Start: 6, End: 8}}, 4},
		{[]span{{Start: 6, End: 8}, {Start: 2, End: 7}}, 6},
		{[]span{{Start: -5, End: 20}}, 10},
		{[]span{{Start: 12, End: 20}}, 0},
	} {
		if got := covered(p, c.kids); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.id(); id != 0 {
		t.Errorf("nil tracer id = %d", id)
	}
	tr.add(1, 0, 1, "sim", "RunAuto", time.Now(), time.Now())
	if s := tr.snapshot(); s != nil {
		t.Errorf("nil tracer snapshot = %v", s)
	}
}
