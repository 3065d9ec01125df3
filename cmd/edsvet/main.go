// edsvet is the repository's custom vet: a multichecker driving the
// eds/internal/lint analyzers over package patterns, in the spirit of
// `go vet -vettool`. It enforces the invariants the engine-equivalence
// story depends on but no compiler checks:
//
//	algdeterminism  node code must be a deterministic function of local
//	                state and received messages (no time, no rand, no
//	                map-order emission, no global state)
//	outboxalias     engine-owned message buffers must not be retained
//	                past the callback that received them
//	roundctx        round loops must poll the run context; cancellation
//	                errors must wrap the shared ErrCanceled sentinel
//
// Usage:
//
//	go run ./cmd/edsvet ./...            # whole module incl. tests (the CI invocation)
//	go run ./cmd/edsvet ./internal/sim ./internal/server
//	go run ./cmd/edsvet -test=false ./...  # non-test sources only
//	go run ./cmd/edsvet -list            # describe the analyzers
//
// Test files are linted by default: round hooks and Receive callbacks
// written inside _test.go files handle the same engine-owned buffers as
// production code, so they get the same outboxalias (and sibling)
// scrutiny. -test=false restores the sources-only view.
//
// Findings print in the `file:line:col: analyzer: message` format; the
// exit status is 1 when any finding survives its suppressions, 2 when
// loading or type-checking fails, 0 otherwise. Deliberate violations
// are silenced in source with a justified directive:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"eds/internal/lint"
	"eds/internal/lint/checker"
	"eds/internal/lint/loader"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	tests := flag.Bool("test", true, "also lint _test.go files (in-package and external test packages)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: edsvet [-list] [-test=false] [package patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mod, err := loader.ModuleDir(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsvet:", err)
		os.Exit(2)
	}
	load := loader.Load
	if *tests {
		load = loader.LoadTests
	}
	pkgs, err := load(mod, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsvet:", err)
		os.Exit(2)
	}
	findings, err := checker.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "edsvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
