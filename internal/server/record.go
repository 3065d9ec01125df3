package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/verify"
)

// runRecord is one finished run, the only form in which edsd keeps a
// result. The paper's algorithms are deterministic functions of the
// port-numbered graph, so one record per (graph digest, resolved
// algorithm) serves every response shape: a flight publishes it, the
// cache holds it, a peer fill carries it, and render writes each shape
// from it. A record is immutable once newRunRecord returns it.
type runRecord struct {
	// line is the summary line: RunResponse without EdgeList, as JSON,
	// newline-terminated.
	line []byte
	// d is the engine's edge set D. A fill ships its words.
	d *graph.EdgeSet
	// ends holds D's endpoints in edge order, two uvarints per edge: u as
	// the difference from the previous edge's u, and v as is. Edges are
	// numbered by their lower end, so the difference is almost always 0
	// or 1, and an edge takes about 3 bytes where an [2]int32 pair takes
	// 8. Every run is cached, most of them for requests that never ask
	// for edges, so the record stays small.
	ends []byte
}

// newRunRecord builds the record of a run of alg on g that took rounds
// rounds and messages messages and chose d. It checks d against g
// itself: `dominating` is never taken from whoever ran the engine.
func newRunRecord(g *graph.Graph, alg string, bound *ratio.R, rounds, messages int, d *graph.EdgeSet) *runRecord {
	sum := RunResponse{
		Algorithm:  alg,
		N:          g.N(),
		M:          g.M(),
		Rounds:     rounds,
		Messages:   messages,
		Edges:      d.Count(),
		Dominating: verify.IsEdgeDominatingSet(g, d),
	}
	if bound != nil {
		sum.Bound = bound.String()
	}
	line, _ := json.Marshal(sum) // strings, ints and a bool always encode
	// One byte of u-difference and v's bytes per edge: exact unless two
	// consecutive lower ends lie 128 or more nodes apart.
	var v [binary.MaxVarintLen64]byte
	ends := make([]byte, 0, sum.Edges*(1+binary.PutUvarint(v[:], uint64(g.N()))))
	prev := 0
	d.ForEach(func(i int) bool {
		e := g.Edge(i)
		ends = binary.AppendUvarint(ends, uint64(e.U()-prev))
		ends = binary.AppendUvarint(ends, uint64(e.V()))
		prev = e.U()
		return true
	})
	return &runRecord{line: append(line, '\n'), d: d, ends: ends}
}

// eachEdge calls fn with the endpoints of every edge of D, in edge
// order, until fn returns false.
func (rec *runRecord) eachEdge(fn func(u, v int) bool) {
	u := uint64(0)
	for b := rec.ends; len(b) > 0; {
		du, n := binary.Uvarint(b)
		v, k := binary.Uvarint(b[n:])
		b = b[n+k:]
		u += du
		if !fn(int(u), int(v)) {
			return
		}
	}
}

// appendPair appends the JSON array [u,v].
func appendPair(dst []byte, u, v int) []byte {
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, int64(u), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(v), 10)
	return append(dst, ']')
}

// shape is what a request asks to see of a record.
type shape uint8

const (
	shapeSummary shape = iota // the summary line
	shapeEdges                // the summary with edge_list
	shapeStream               // NDJSON: the summary line, then one [u,v] line per edge
	shapeFill                 // a peer fill: the summary with D's words as "d"
)

// body renders a buffered shape of rec, newline-terminated. edge_list
// is RunResponse's last field and "d" follows it in fillAnswer, so each
// splices in before the summary's closing brace: the result is what
// json.Marshal writes, and edge_list is left out when D is empty, as
// omitempty does.
func (rec *runRecord) body(sh shape) []byte {
	if sh == shapeSummary || sh == shapeEdges && len(rec.ends) == 0 {
		return rec.line
	}
	open := rec.line[:len(rec.line)-2] // without "}\n"
	if sh == shapeFill {
		raw, _ := binary.Append(nil, binary.LittleEndian, rec.d.Words()) // a []uint64 always encodes
		out := make([]byte, 0, len(rec.line)+8+base64.StdEncoding.EncodedLen(len(raw)))
		out = append(append(out, open...), `,"d":"`...)
		out = base64.StdEncoding.AppendEncode(out, raw)
		return append(out, "\"}\n"...)
	}
	out := make([]byte, 0, len(rec.line)+16+4*len(rec.ends))
	out = append(append(out, open...), `,"edge_list":[`...)
	rec.eachEdge(func(u, v int) bool {
		out = append(appendPair(out, u, v), ',')
		return true
	})
	return append(out[:len(out)-1], "]}\n"...) // the last pair's comma becomes the closing bracket
}

// streamChunkBytes is the chunk size of the NDJSON stream: the response
// leaves in chunks of about this size, each followed by a flush, so the
// client sees edges while the tail is still being written and the
// server never holds more than one chunk of one response in memory.
const streamChunkBytes = 64 << 10

// render answers a request of shape sh from rec, with X-Cache class
// (miss, hit, coalesced or fill). A stream is chunked NDJSON: the
// summary line, whose Edges announces the line count, then one `[u,v]`
// line per edge of D. A million-edge stream is ~16 MiB of body served
// from a 64 KiB buffer.
func (s *Server) render(w http.ResponseWriter, rec *runRecord, sh shape, class string) {
	w.Header().Set("X-Cache", class)
	if sh != shapeStream {
		w.Header().Set("Content-Type", "application/json")
		w.Write(rec.body(sh))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(w).Flush
	chunk := append(make([]byte, 0, streamChunkBytes+64), rec.line...)
	var n int64
	rec.eachEdge(func(u, v int) bool {
		chunk = append(appendPair(chunk, u, v), '\n')
		if len(chunk) < streamChunkBytes {
			return true
		}
		k, err := w.Write(chunk)
		n += int64(k)
		_ = flush() // a writer that cannot flush still gets the whole body
		chunk = chunk[:0]
		// A failed write means the client went away mid-stream; there
		// is no status left to change, just stop producing.
		return err == nil
	})
	k, _ := w.Write(chunk)
	s.st.recordStream(n + int64(k))
}

// fillAnswer is a fill answer as JSON: the summary, then D's bitset
// words, little-endian, as base64.
type fillAnswer struct {
	RunResponse
	D []byte `json:"d"`
}

// decodeFill checks an owner's fill answer against g, this replica's
// own decoding of the request, and returns the record it carries. alg
// and bound are this replica's resolution of the request's algorithm.
// No answer crosses the replica boundary unchecked:
//
//   - d must be exactly D's words over g's m edges, with no bit at or
//     past m;
//   - rounds and messages must be possible: each port sends at most one
//     message a round;
//   - the record newRunRecord builds from them must re-render the answer
//     byte for byte, which pins algorithm, n, m, |D|, dominating and
//     bound to what this replica computes;
//   - and D must dominate g.
//
// An owner can still send a different dominating set with a consistent
// summary, or misreport rounds within the messages bound.
func decodeFill(body []byte, g *graph.Graph, alg string, bound *ratio.R) (*runRecord, error) {
	var a fillAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding fill answer: %v", err)
	}
	m := g.M()
	words := make([]uint64, (m+63)/64)
	if _, err := binary.Decode(a.D, binary.LittleEndian, words); err != nil || len(a.D) != 8*len(words) {
		return nil, fmt.Errorf("d holds %d bytes, want %d for %d edges", len(a.D), 8*len(words), m)
	}
	if m%64 != 0 && words[len(words)-1]>>(m%64) != 0 {
		return nil, fmt.Errorf("d has an edge at or past m = %d", m)
	}
	// messages <= rounds × ports, divided rather than multiplied so that
	// no product can overflow.
	if ports := g.NumPorts(); a.Rounds < 0 || a.Messages < 0 ||
		a.Messages > 0 && (ports == 0 || (a.Messages-1)/ports >= a.Rounds) {
		return nil, fmt.Errorf("%d messages in %d rounds over %d ports", a.Messages, a.Rounds, ports)
	}
	rec := newRunRecord(g, alg, bound, a.Rounds, a.Messages, graph.EdgeSetFromWords(m, words))
	if !bytes.Equal(rec.body(shapeFill), body) {
		a.EdgeList = nil
		return nil, fmt.Errorf("owner's summary %+v disagrees with its D on this graph, which gives %s", a.RunResponse, bytes.TrimSpace(rec.line))
	}
	if !a.Dominating {
		return nil, errors.New("owner's D does not dominate the graph")
	}
	return rec, nil
}
