// Command perfbench is the repository benchmark: two closed-loop
// workloads that measure the library and one edsd daemon end to end,
// and, in a separate traced run, each module (graph, sim, verify,
// server, cluster, edsd) from outside through its public entry points.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and edsd from the checkout first:
//
//	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	solve-large  in-process eds.RunAuto on three large graphs, one per
//	             kernel (200k-node 3-regular, 700x700 torus, 30k-node tree)
//	serve-cold   one edsd, 2 clients, every request a graph it has never seen
//
// Every run checks every output against a reference computed at set-up
// and prints its metrics, one per line with units, then one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The exit status
// is non-zero when an output check, a workload self-check or a request
// failed. Per-run results, spans and edsd logs go under
// .bench_build/perfbench/ in the repository root.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root
	edsd     string // edsd binary built from root
	out      string // per-run artefacts
}

func (c *config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

// tag names this run's artefacts.
func (c *config) tag() string {
	return fmt.Sprintf("%s-s%d-t%d", c.workload, c.seed, btoi(c.trace))
}

var workloads = map[string]func(*config) (*outcome, error){
	"solve-large": runSolveLarge,
	"serve-cold":  runServeCold,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cfg := &config{}
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.StringVar(&cfg.workload, "workload", "", "solve-large or serve-cold")
	fset.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fset.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	trace := fset.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fset.StringVar(&cfg.root, "root", ".", "repository root")
	fset.StringVar(&cfg.edsd, "edsd", "", "edsd binary built from the repository")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload solve-large|serve-cold, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg.out = filepath.Join(cfg.root, ".bench_build", "perfbench")
	for _, d := range []string{"results", "spans", "logs"} {
		if err := os.MkdirAll(filepath.Join(cfg.out, d), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	// The engines shard across GOMAXPROCS; pin it so the workloads mean
	// the same on any host (edsd gets the same through its environment).
	runtime.GOMAXPROCS(2)

	meta := collectMeta(cfg)
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	meta["loadavg_end"] = loadavg()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			return 2
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := o.nproblems == 0

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, btoi(cfg.trace))
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)
	for _, l := range o.report {
		fmt.Println("workload", l)
	}
	for _, p := range o.problems {
		fmt.Println("FAILED", p)
	}
	if o.nproblems > len(o.problems) {
		fmt.Printf("FAILED %d more\n", o.nproblems-len(o.problems))
	}
	for _, d := range defs {
		fmt.Printf("metric %-32s %14.4f %s\n", d.name, o.metrics[d.name], d.unit)
	}
	result := map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	}
	if err := saveRun(cfg, meta, o, result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct || o.failed > 0 {
		return 1
	}
	return 0
}

// saveRun writes the run's full record and, for a traced run, its spans.
func saveRun(cfg *config, meta map[string]any, o *outcome, result map[string]any) error {
	stamp := time.Now().UTC().Format("20060102T150405.000000000")
	rec := map[string]any{"meta": meta, "result": result, "report": o.report, "problems": o.problems}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "results", cfg.tag()+"-"+stamp+".json"), b, 0o644); err != nil {
		return err
	}
	if cfg.trace {
		return writeSpans(filepath.Join(cfg.out, "spans", cfg.tag()+"-"+stamp+".jsonl"), o.spans)
	}
	return nil
}

// collectMeta records the host and the code under test with each result.
func collectMeta(cfg *config) map[string]any {
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"cpu_model":   cpuModel(),
		"commit":      gitCommit(cfg.root),
		"tree_sha256": treeDigest(cfg.root),
		"loadavg":     loadavg(),
		"started":     time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// gitCommit names the commit when the checkout is a git work tree; a
// plain source tree is identified by treeDigest alone.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes the Go sources and module files of the checkout, so
// results of two trees can be told apart without git.
func treeDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
