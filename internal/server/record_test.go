package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
	"eds/internal/spec"
	"eds/internal/verify"
)

// TestRenderMatchesJSON pins the wire format of every shape rendered
// from a record: an edge-list body is json.Marshal of the RunResponse it
// decodes to, with each pair [u,v] of the engine's D in edge order; a
// summary is the same without edge_list; a stream is the summary line
// and then one line per pair. The edgeless graph is the case where
// edge_list must be left out, as omitempty does.
func TestRenderMatchesJSON(t *testing.T) {
	graphs := append(gen.EquivalenceCorpus(), gen.NamedGraph{Name: "Edgeless/3", G: graph.MustFromUndirected(3, nil)})
	h := New(Config{CacheEntries: -1}).Handler()
	serve := func(t *testing.T, query string, body []byte) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run"+query, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (body %s)", query, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	marshalLine := func(t *testing.T, rr RunResponse) []byte {
		t.Helper()
		b, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for _, ng := range graphs {
		for _, algSpec := range []string{"auto", "alledges", "portone"} {
			t.Run(ng.Name+"/"+algSpec, func(t *testing.T) {
				body := graphBytes(t, ng.G)
				edges := serve(t, "?alg="+algSpec+"&edges=1", body)
				rr := decodeRun(t, edges)
				if want := marshalLine(t, rr); !bytes.Equal(edges, want) {
					t.Errorf("edges body\n%s\nis not json.Marshal of what it decodes to\n%s", edges, want)
				}
				alg, _, err := spec.Algorithm(algSpec, ng.G)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunSequential(ng.G, alg)
				if err != nil {
					t.Fatal(err)
				}
				var pairs [][2]int
				res.Outputs.ForEach(func(i int) bool {
					e := ng.G.Edge(i)
					pairs = append(pairs, [2]int{e.U(), e.V()})
					return true
				})
				if fmt.Sprint(rr.EdgeList) != fmt.Sprint(pairs) {
					t.Errorf("edge_list %v, want D's endpoints %v", rr.EdgeList, pairs)
				}

				rr.EdgeList = nil
				line := marshalLine(t, rr)
				if got := serve(t, "?alg="+algSpec, body); !bytes.Equal(got, line) {
					t.Errorf("summary %s, want %s", got, line)
				}
				for _, p := range pairs {
					line = fmt.Appendf(line, "[%d,%d]\n", p[0], p[1])
				}
				if got := serve(t, "?alg="+algSpec+"&edges=1&stream=1", body); !bytes.Equal(got, line) {
					t.Errorf("stream\n%s\nwant\n%s", got, line)
				}
			})
		}
	}
}

// FuzzDecodeFill feeds decodeFill, the one decoder of input from a
// peer, arbitrary answers for a 70-cycle: it must never panic, and any
// record it accepts must dominate the graph with |D| = edges over the
// graph's m edges.
func FuzzDecodeFill(f *testing.F) {
	g := gen.Cycle(70)
	alg, bound, err := spec.Algorithm("auto", g)
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	New(Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/v1/fill", bytes.NewReader(graphBytes(f, g))))
	if rec.Code != http.StatusOK {
		f.Fatalf("fill: status %d (body %s)", rec.Code, rec.Body)
	}
	answer := rec.Body.Bytes()
	if _, err := decodeFill(answer, g, alg.Name(), bound); err != nil {
		f.Fatalf("the owner's own answer is rejected: %v", err)
	}
	f.Add(answer)
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := decodeFill(body, g, alg.Name(), bound)
		if err != nil {
			return
		}
		sum := decodeRun(t, r.line)
		if r.d.Universe() != g.M() || r.d.Count() != sum.Edges || !verify.IsEdgeDominatingSet(g, r.d) {
			t.Errorf("accepted %s: D = %v over %d edges", body, r.d, r.d.Universe())
		}
	})
}
