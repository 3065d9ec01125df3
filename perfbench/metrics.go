package main

import (
	"fmt"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library or of edsd sees,
// reported by every untraced run. On solve-large an op is one
// eds.RunAuto; on serve-cold it is one request, and solve_ms.F is the
// client latency of requests for a graph of family F (all of them are
// solved on the request's critical path).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"solve_ms.regular3", "ms", "lower"},
	{"solve_ms.torus", "ms", "lower"},
	{"solve_ms.tree", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// xcacheClasses are the X-Cache values of serve-cold's requests, each
// graph new to edsd: "miss", and "bypass" (streams) reported as class
// "stream".
var xcacheClasses = []string{"miss", "stream"}

// traceLayers are the layers spans are attributed to: the benchmark's
// own client code (bench) and the repo modules it calls.
var traceLayers = []string{"bench", "graph", "sim", "verify", "server", "cluster", "edsd"}

// perLayer are the traced run's metrics, one set per module.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.decode_ms", "ms", "lower"},
		{"graph.decode_mb_s", "MB/s", "higher"},
		{"graph.decode_allocs", "count", "lower"},
		{"graph.digest_us", "us", "lower"},
	}
	for _, f := range families {
		defs = append(defs,
			metricDef{"sim.setup_ms." + f, "ms", "lower"},
			metricDef{"sim.rounds_ms." + f, "ms", "lower"},
			metricDef{"sim.outputs_ms." + f, "ms", "lower"},
			metricDef{"sim.ns_per_port_round." + f, "ns", "lower"},
			metricDef{"sim.edgeset_ms." + f, "ms", "lower"},
			metricDef{"sim.allocs_per_run." + f, "count", "lower"},
			metricDef{"sim.rounds." + f, "count", "lower"},
			metricDef{"sim.messages." + f, "count", "lower"},
			metricDef{"sim.sharded_speedup." + f, "ratio", "higher"},
		)
	}
	defs = append(defs,
		metricDef{"sim.run_ms", "ms", "lower"},
		metricDef{"sim.setup_ms", "ms", "lower"},
		metricDef{"sim.rounds_ms", "ms", "lower"},
		metricDef{"sim.outputs_ms", "ms", "lower"},
		metricDef{"sim.sharded_share", "ratio", "higher"},
		metricDef{"verify.eds_ms", "ms", "lower"},
		metricDef{"server.miss_ms", "ms", "lower"},
		metricDef{"server.encode_ms", "ms", "lower"},
		metricDef{"server.raw_hit_us", "us", "lower"},
		metricDef{"server.canonical_hit_us", "us", "lower"},
		metricDef{"server.hit_ratio", "ratio", "higher"},
		metricDef{"server.runs_per_request", "ratio", "lower"},
		metricDef{"server.cache_entries", "count", "lower"},
		metricDef{"server.engine_ms_per_run", "ms", "lower"},
		metricDef{"cluster.fill_share", "ratio", "lower"},
		metricDef{"cluster.fill_owner_hit_share", "ratio", "higher"},
		metricDef{"cluster.fallbacks", "count", "lower"},
		metricDef{"cluster.fill_hit_ms", "ms", "lower"},
	)
	for _, c := range xcacheClasses {
		defs = append(defs, metricDef{"edsd.latency_p50_ms." + c, "ms", "lower"})
	}
	for _, c := range xcacheClasses {
		defs = append(defs, metricDef{"edsd.share." + c, "ratio", "higher"})
	}
	defs = append(defs,
		metricDef{"edsd.transport_ms.miss", "ms", "lower"},
		metricDef{"edsd.req_kb", "KiB", "lower"},
		metricDef{"edsd.resp_kb", "KiB", "lower"},
		metricDef{"edsd.client_cpu_share", "ratio", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_share." + l, "ratio", "lower"})
	}
	return defs
}()

// outcome is what one workload run produced.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks and broken workload self-checks
	nproblems int      // all of them; problems keeps the first few
	report    []string // workload properties and sample counts, for people
	spans     []span
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) problem(format string, args ...any) {
	const keep = 20 // enough to diagnose; nproblems says how many there were
	o.nproblems++
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// shares formats a count map as name=share pairs in name order.
func shares(counts map[string]int) string {
	total := 0
	names := make([]string, 0, len(counts))
	for k, v := range counts {
		total += v
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.4f", k, float64(counts[k])/float64(max(total, 1)))
	}
	return s
}
