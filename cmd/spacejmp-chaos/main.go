// Command spacejmp-chaos runs declarative chaos scenarios against the
// clustered SpaceJMP stack and checks their invariants. Each run is fully
// self-contained: it boots the scenario's simulated machine and cluster,
// drives it with the closed-loop verifying load generator while the step
// schedule arms and disarms fault-registry rules (and kills nodes), then
// asserts the declared invariants from the stats snapshot, the trace ring,
// and the leak/drain checks. Exit status is 0 only if every invariant held.
//
// Usage:
//
//	spacejmp-chaos -scenario name          run one library scenario
//	spacejmp-chaos -spec file.json         run a JSON scenario file
//	spacejmp-chaos -all                    run the whole library
//	spacejmp-chaos -list                   list library scenarios
//	spacejmp-chaos -scenario name -dump    print a scenario as JSON
//	              [-seed n] [-machine name] [-json] [-quiet] [-no-admin]
//	              [-soak d] [-soak-iters n]
//
// -seed and -machine override the scenario's own values (a different seed
// replays the same timeline with different probabilistic firings). The
// admin surface and its /stats/delta watcher are on by default so every
// run also exercises the streaming endpoint; -no-admin disables that.
//
// Soak mode repeats the selected scenario(s) with rotating seeds — seed,
// seed+1, seed+2, … — until a wall-clock budget (-soak 10m) or an
// iteration cap (-soak-iters 50) runs out, whichever comes first, and
// stops at the first failing iteration with that run's full report and the
// seed needed to replay it. This is the cheap way to hunt
// schedule-dependent bugs: one seed is one timeline, a soak is a sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"spacejmp/internal/chaos"
)

func main() {
	scenario := flag.String("scenario", "", "library scenario name to run")
	specFile := flag.String("spec", "", "JSON scenario file to run")
	all := flag.Bool("all", false, "run every library scenario")
	list := flag.Bool("list", false, "list the library scenarios")
	dump := flag.Bool("dump", false, "print the selected scenario as JSON instead of running it")
	seed := flag.Int64("seed", 0, "override the scenario seed (0 = use the spec's)")
	machine := flag.String("machine", "", "override the scenario machine (small, M1, M2, M3)")
	jsonOut := flag.Bool("json", false, "emit the run report(s) as JSON")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	noAdmin := flag.Bool("no-admin", false, "skip the admin surface and /stats/delta watcher")
	soak := flag.Duration("soak", 0, "soak mode: repeat with rotating seeds until this wall-clock budget expires")
	soakIters := flag.Int("soak-iters", 0, "soak mode: iteration cap (with -soak, whichever runs out first)")
	flag.Parse()

	if *list {
		for _, s := range chaos.Library() {
			fmt.Printf("%-28s %s\n", s.Name, s.Description)
		}
		return
	}

	var specs []*chaos.Spec
	switch {
	case *all:
		specs = chaos.Library()
	case *scenario != "":
		s, ok := chaos.Lookup(*scenario)
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q (have %v)", *scenario, chaos.Names()))
		}
		specs = []*chaos.Spec{s}
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		s, err := chaos.ParseSpec(data)
		if err != nil {
			fatal(err)
		}
		specs = []*chaos.Spec{s}
	default:
		fatal(fmt.Errorf("nothing to do: want -scenario, -spec, -all, or -list"))
	}

	if *seed != 0 {
		for _, s := range specs {
			s.Seed = *seed
		}
	}
	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	if *dump {
		for _, s := range specs {
			if err := out.Encode(s); err != nil {
				fatal(err)
			}
		}
		return
	}

	opts := chaos.Options{Machine: *machine, Admin: !*noAdmin}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *soak > 0 || *soakIters > 0 {
		runSoak(specs, opts, *soak, *soakIters)
		return
	}
	failed := 0
	var reports []*chaos.Report
	for _, s := range specs {
		rep, err := chaos.Run(s, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.Name, err))
		}
		reports = append(reports, rep)
		if !rep.Passed {
			failed++
		}
		if !*jsonOut {
			rep.WriteText(os.Stdout)
		}
	}
	if *jsonOut {
		var v any = reports
		if len(reports) == 1 {
			v = reports[0]
		}
		if err := out.Encode(v); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "spacejmp-chaos: %d of %d scenarios failed\n", failed, len(reports))
		os.Exit(1)
	}
}

// runSoak repeats the selected scenarios with rotating seeds (each spec's
// base seed plus the iteration number) until the wall-clock budget or the
// iteration cap runs out. The first failing iteration stops the soak with
// its full report — the printed seed replays that exact timeline.
func runSoak(specs []*chaos.Spec, opts chaos.Options, budget time.Duration, iters int) {
	base := make([]int64, len(specs))
	for i, s := range specs {
		base[i] = s.Seed
		if base[i] == 0 {
			// The runner treats 0 as "default seed 1"; start the rotation
			// there so iteration 0 isn't a duplicate of iteration 1.
			base[i] = 1
		}
	}
	start := time.Now()
	done := 0
	for i := 0; iters == 0 || i < iters; i++ {
		if budget > 0 && time.Since(start) >= budget {
			break
		}
		for j, s := range specs {
			s.Seed = base[j] + int64(i)
			t0 := time.Now()
			rep, err := chaos.Run(s, opts)
			if err != nil {
				fatal(fmt.Errorf("soak iter %d: %s: %w", i, s.Name, err))
			}
			if !rep.Passed {
				rep.WriteText(os.Stdout)
				fmt.Fprintf(os.Stderr,
					"spacejmp-chaos: soak: %s failed at iteration %d after %d clean runs (replay with -scenario %s -seed %d)\n",
					s.Name, i, done, s.Name, s.Seed)
				os.Exit(1)
			}
			done++
			fmt.Printf("soak iter %d: %s (seed %d): PASS in %v\n",
				i, s.Name, s.Seed, time.Since(t0).Round(time.Millisecond))
		}
	}
	fmt.Printf("soak: %d runs clean in %v\n", done, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spacejmp-chaos: %v\n", err)
	os.Exit(1)
}
