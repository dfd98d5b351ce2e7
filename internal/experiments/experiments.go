// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function returning a Result (headers
// + rows + notes); the registry maps experiment IDs ("fig12", "tab1",
// ...) to generators. cmd/ukbench and the root bench_test.go drive them.
//
// Measured rows come from running the simulated systems; transcribed
// rows (comparator OSes we cannot rebuild) are marked "paper" in their
// source column — EXPERIMENTS.md records paper-vs-measured per figure
// and how to read a disagreement.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"unikraft/internal/core"
	"unikraft/internal/sim"
)

// Env is the execution environment experiments run against: the
// micro-library catalog builds resolve against and a factory for fresh
// simulated machines. The public SDK threads its *Runtime through here,
// so figures can be regenerated against custom catalogs or machine
// models; each generator takes its machines from the Env instead of
// reaching for package-level state, which is what makes RunAll safe to
// parallelize.
type Env struct {
	// Catalog is the micro-library catalog (read-only during runs).
	Catalog *core.Catalog
	// NewMachine returns a fresh simulated machine.
	NewMachine func() *sim.Machine
}

// DefaultEnv is the environment the paper's evaluation uses: the
// calibrated default catalog (the process-wide shared one) and stock
// machines.
func DefaultEnv() *Env {
	return &Env{Catalog: core.SharedCatalog(), NewMachine: sim.NewMachine}
}

// Result is one regenerated table/figure.
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render prints the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Headers)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// generator produces one experiment result against an environment.
type generator func(env *Env) (*Result, error)

var registry = map[string]generator{}
var titles = map[string]string{}

// register adds a generator (called from init functions in this
// package).
func register(id, title string, g generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = g
	titles[id] = title
}

// IDs lists registered experiments, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's display title.
func Title(id string) string { return titles[id] }

// Run executes one experiment by ID against env (nil means DefaultEnv).
func Run(env *Env, id string) (*Result, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if env == nil {
		env = DefaultEnv()
	}
	return g(env)
}

// RunAll executes every experiment concurrently (each on its own
// simulated machines) and returns the results in ID order. Failed
// experiments leave a nil slot and their errors are joined.
func RunAll(env *Env) ([]*Result, error) {
	if env == nil {
		env = DefaultEnv()
	}
	ids := IDs()
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := Run(env, id)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", id, err)
				return
			}
			results[i] = r
		}(i, id)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// helpers ------------------------------------------------------------------

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func mrps(v float64) string { return fmt.Sprintf("%.2fM", v/1e6) }
func krps(v float64) string { return fmt.Sprintf("%.1fK", v/1e3) }
