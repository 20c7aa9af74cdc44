// Command bench is the repository's benchmark: four workloads on two clocks
// (simulated cycles and host wall-clock), gated end-to-end metrics, and a
// layer ladder measured from outside. It boots the stack in-process, drives
// it closed-loop, verifies every reply, and prints every metric by name with
// its unit. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-seed n] [-quick] [-aa]                       every workload, timed then traced
//	bash bench/run.sh -workload name -seed n -seconds s -trace 0|1   one workload, one JSON result line
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "", "run only this workload and end with one JSON result line")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same command streams")
	seconds := flag.Int("seconds", 30, "measured seconds per workload, split over 5 slices")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	aa := flag.Bool("aa", false, "run two complete timed sets and hold their medians to the bounds")
	quick := flag.Bool("quick", false, "smoke run: 1 slice x 2 s per workload, 2000-command ladder, no bounds")
	flag.Parse()

	if runtime.NumCPU() < 2 {
		fatal(errors.New("needs at least 2 CPUs: the run shape is fixed at GOMAXPROCS 2"))
	}
	runtime.GOMAXPROCS(2)
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	cfg := fullConfig(*seconds)
	if *quick {
		cfg = quickConfig
	}
	printHeader(cfg)

	switch {
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		os.Exit(driverRun(root, w, *seed, *seconds, *trace == 1))
	case *aa:
		os.Exit(aaRun(cfg, *seed))
	default:
		os.Exit(fullRun(root, cfg, *seed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// repoRoot finds the checkout root from the working directory (the root
// itself under run.sh, bench/ under go run and go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "internal", "hw", "hw.go")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

func printHeader(cfg runConfig) {
	fmt.Printf("spacejmp bench: closed loop (callers wait for replies), %d conns x depth %d over TCP loopback, %d router workers, %d nodes, machine M1, stats sink on (trace cap 0)\n",
		conns, pipelineDepth, routerWorkers, clusterNodes)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s loopback=127.0.0.1; %d slices x %v measured, %v warm-up\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cfg.slices, cfg.measure, cfg.warm)
}

// timedSet runs cfg.slices slices of every workload in ws, round-robin
// (A B C D A B C D ...), so that slow drift of the host lands on all of
// them alike.
func timedSet(ws []workload, cfg runConfig, seed int64) (map[string]*runResult, error) {
	results := map[string]*runResult{}
	streams := map[string][]*stream{}
	for _, w := range ws {
		results[w.name] = &runResult{}
		n := conns
		if w.direct {
			n = 1
		}
		for c := 0; c < n; c++ {
			streams[w.name] = append(streams[w.name], newStream(w, seed, c))
		}
	}
	var errs error
	for i := 0; i < cfg.slices; i++ {
		for _, w := range ws {
			res, err := runSlice(w, cfg, streams[w.name])
			rr := results[w.name]
			if res != nil {
				rr.attempted += res.tally.attempted
				rr.refused += res.tally.refused
				rr.mismatched += res.tally.mismatched
			}
			if err != nil {
				errs = errors.Join(errs, fmt.Errorf("%s slice %d: %w", w.name, i, err))
				continue
			}
			rr.slices = append(rr.slices, res.metrics())
		}
	}
	for _, rr := range results {
		if len(rr.slices) > 0 {
			rr.aggregate()
		}
	}
	return results, errs
}

// tracedRun climbs the ladder for w, replaying n commands per rung, and
// times the micro-rungs that are reported under w. It returns every
// per-layer metric: those, the line count loc, and the ones the loaded run
// already read off its counters. The tally is valid on error too.
func tracedRun(root string, w workload, seed int64, n, loc int, loaded map[string]float64) (map[string]float64, *tally, error) {
	l := newLadder(w, seed, n)
	path := filepath.Join(root, "bench", "out", "trace-"+w.name+".json")
	if err := l.run(path); err != nil {
		return nil, &l.tally, err
	}
	micro, err := microRungs(w)
	if err != nil {
		return nil, &l.tally, err
	}
	fmt.Printf("%s: trace of %d spans written to %s\n", w.name, len(l.tr.spans), path)
	l.out["repo.nontest_go_loc"] = float64(loc)
	for _, m := range []map[string]float64{micro, loaded} {
		for k, v := range m {
			l.out[k] = v
		}
	}
	return l.out, &l.tally, nil
}

// nontestGoLOC counts the lines of non-test Go outside bench/: ROADMAP aim 2
// tracks it beside the timings.
func nontestGoLOC(root string) (int, error) {
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || (name == "bench" && filepath.Dir(path) == root)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(data, []byte("\n"))
		return nil
	})
	return total, err
}

func printMetrics(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		dir := "lower is better"
		if d.higher {
			dir = "higher is better"
		}
		fmt.Printf("  %-40s %16.4f %-7s (%s clock, %s)\n", d.name, vals[d.name], d.unit, d.clock, dir)
	}
}

func (rr *runResult) failed() uint64 { return rr.refused + rr.mismatched }

func printFailures(rr *runResult) {
	for _, name := range []string{"cmds_per_s", "client.raw_cmds_per_s"} {
		fmt.Printf("  %-40s", name+" by slice")
		for _, sl := range rr.slices {
			fmt.Printf(" %.0f", sl[name])
		}
		fmt.Println()
	}
	fmt.Printf("  %-40s", "client.host_speed by slice")
	for _, sl := range rr.slices {
		fmt.Printf(" %.3f", sl["client.host_speed"])
	}
	fmt.Println()
	fmt.Printf("  %-40s %16d of %d attempted (%d refused, %d mismatched)\n",
		"failed", rr.failed(), rr.attempted, rr.refused, rr.mismatched)
}

// fullRun is the hand-run mode: every workload timed round-robin, then
// traced, everything printed.
func fullRun(root string, cfg runConfig, seed int64) int {
	results, err := timedSet(workloads, cfg, seed)
	exit := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		exit = 1
	}
	for _, w := range workloads {
		rr := results[w.name]
		if rr.medians == nil {
			continue
		}
		printMetrics(fmt.Sprintf("\n== %s: end-to-end, median of %d slices ==", w.name, len(rr.slices)), endToEnd, rr.medians)
		printFailures(rr)
		if rr.failed() > 0 {
			exit = 1
		}
	}
	loc, err := nontestGoLOC(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		exit = 1
	}
	for _, w := range workloads {
		layer, tl, err := tracedRun(root, w, seed, cfg.ladder, loc, results[w.name].medians)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced run: %v\n", w.name, err)
			exit = 1
			continue
		}
		if tl.failed() > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s traced run: %d of %d replies failed verification\n", w.name, tl.failed(), tl.attempted)
			exit = 1
		}
		printMetrics(fmt.Sprintf("\n== %s: per layer ==", w.name), perLayer, layer)
	}
	return exit
}

// aaRun runs two complete timed sets of the same code back to back and
// holds every workload x end-to-end metric to the benchmark's own bound.
func aaRun(cfg runConfig, seed int64) int {
	exit := 0
	var sets [2]map[string]*runResult
	for i := range sets {
		var err error
		if sets[i], err = timedSet(workloads, cfg, seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("\n%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if a.failed()+b.failed() > 0 {
			fmt.Printf("%-14s failed commands: %d, %d\n", w.name, a.failed(), b.failed())
			exit = 1
		}
		for _, d := range endToEnd {
			va, vb := a.medians[d.name], b.medians[d.name]
			worse := ratio(vb-va, va)
			if d.higher {
				worse = -worse
			}
			verdict := "PASS"
			// One thread on a deterministic machine: store-direct's simulated
			// clock has no noise to allow for, so any difference is a defect.
			exact := w.direct && d.name == "sim_cycles_per_cmd"
			if worse > d.bound || (exact && va != vb) {
				verdict = "FAIL"
				exit = 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %8.2f%% %6.1f%% %s\n",
				w.name, d.name, va, vb, 100*worse, 100*d.bound, verdict)
		}
	}
	return exit
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one workload and ends with the JSON result line, also
// when the run fails. The traced run spends half its seconds on the loaded
// slices (the counters and client percentiles come from them) and scales
// the ladder to the rest.
func driverRun(root string, w workload, seed int64, seconds int, traced bool) int {
	cfg := fullConfig(seconds)
	if traced {
		cfg.measure /= 2
		cfg.ladder = 250 * seconds
	}
	results, err := timedSet([]workload{w}, cfg, seed)
	rr := results[w.name]
	res := result{Attempted: rr.attempted, Failed: rr.failed(), Metrics: map[string]metricValue{}}
	vals, defs := rr.medians, endToEnd
	if err == nil && traced {
		var loc int
		if loc, err = nontestGoLOC(root); err == nil {
			var tl *tally
			vals, tl, err = tracedRun(root, w, seed, cfg.ladder, loc, rr.medians)
			res.Attempted += tl.attempted
			res.Failed += tl.failed()
		}
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	} else {
		printMetrics(fmt.Sprintf("\n== %s ==", w.name), defs, vals)
		printFailures(rr)
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fatal(jerr)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
