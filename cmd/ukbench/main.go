// Command ukbench regenerates the paper's tables and figures against a
// Runtime.
//
//	ukbench -list            enumerate experiments
//	ukbench fig12 tab4 ...   run selected experiments
//	ukbench -all             run everything concurrently (several minutes)
//	ukbench -json fig8 ...   machine-readable results (BENCH_baseline.json
//	                         is this output, committed)
//
// ukbench judges nothing: the regression gate on the tables is
// internal/experiments' TestBaselineByteIdentity, which holds every
// BENCH_baseline.json cell at equality in tier-1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"unikraft"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs")
	all := flag.Bool("all", false, "run every experiment (concurrently)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	flag.Parse()

	rt := unikraft.NewRuntime()
	if *list {
		for _, id := range rt.Experiments() {
			fmt.Printf("%-7s %s\n", id, rt.ExperimentTitle(id))
		}
		return
	}

	emit := func(results []*unikraft.ExperimentResult) error {
		// Failed experiments leave nil slots (RunAllExperiments);
		// neither output mode should surface them.
		ok := results[:0:0]
		for _, res := range results {
			if res != nil {
				ok = append(ok, res)
			}
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(ok)
		}
		for _, res := range ok {
			fmt.Println(res.Render())
		}
		return nil
	}

	if *all {
		results, err := rt.RunAllExperiments()
		if eerr := emit(results); eerr != nil {
			fmt.Fprintln(os.Stderr, "ukbench:", eerr)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ukbench:", err)
			os.Exit(1)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ukbench [-list|-all] [-json] [experiment-id...]")
		os.Exit(2)
	}
	results := make([]*unikraft.ExperimentResult, 0, len(ids))
	for _, id := range ids {
		res, err := rt.RunExperiment(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ukbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	if err := emit(results); err != nil {
		fmt.Fprintln(os.Stderr, "ukbench:", err)
		os.Exit(1)
	}
}
