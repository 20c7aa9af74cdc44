package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

// Options tune one Runner invocation without touching the spec.
type Options struct {
	// Machine overrides the spec's machine config name.
	Machine string
	// Admin serves the HTTP admin surface on a loopback listener for the
	// run's duration and watches its own /stats/delta long-poll stream; the
	// observed delta count lands in Report.DeltasObserved and is asserted
	// (at least one delta per step) as the stats-delta check.
	Admin bool
	// Log receives progress lines; nil runs silently.
	Log io.Writer
}

// Check is one evaluated invariant.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Report is a finished run: what the load saw, what each step did, what
// the registry looked like at the end, and every invariant verdict.
type Report struct {
	Scenario       string              `json:"scenario"`
	Seed           int64               `json:"seed"`
	Elapsed        time.Duration       `json:"elapsed_ns"`
	Load           *server.LoadResult  `json:"load,omitempty"`
	Steps          []StepReport        `json:"steps,omitempty"`
	Faults         []fault.PointStatus `json:"faults,omitempty"`
	DeltasObserved int                 `json:"deltas_observed,omitempty"`
	Checks         []Check             `json:"checks"`
	Passed         bool                `json:"passed"`
}

// Failed returns the checks that did not hold.
func (r *Report) Failed() []Check {
	return slices.DeleteFunc(slices.Clone(r.Checks), func(c Check) bool { return c.OK })
}

// WriteText renders the report for a terminal.
func (r *Report) WriteText(w io.Writer) {
	verdict := "FAIL"
	if r.Passed {
		verdict = "PASS"
	}
	fmt.Fprintf(w, "scenario %s (seed %d): %s in %v\n", r.Scenario, r.Seed, verdict, r.Elapsed.Round(time.Millisecond))
	if r.Load != nil {
		r.Load.WriteText(w, "  load: ")
	}
	for _, s := range r.Steps {
		tgt := "any"
		if s.Target != fault.TargetAny {
			tgt = fmt.Sprintf("%d", s.Target)
		}
		line := fmt.Sprintf("  step %d: %s target %s fired %d/%d", s.Step, s.Point, tgt, s.Fired, s.Hits)
		if s.Err != "" {
			line += " err=" + s.Err
		}
		fmt.Fprintln(w, line)
	}
	if r.DeltasObserved > 0 {
		fmt.Fprintf(w, "  stats/delta: %d deltas streamed\n", r.DeltasObserved)
	}
	for _, c := range r.Checks {
		mark := "ok"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintln(w, strings.TrimRight(fmt.Sprintf("  check %-32s %-4s %s", c.Name, mark, c.Detail), " "))
	}
}

// quiesceTimeout bounds the post-load wait for asynchronous machinery
// (promotions, ships, degradations) to reach the declared counts; generous
// because the race detector slows everything down. Tests shorten it.
var quiesceTimeout = 15 * time.Second

// Run boots the scenario's stack, drives it with the verifying load while
// the schedule plays, lets the cluster quiesce, tears it down, and evaluates
// the invariants. A non-nil error means the run could not be staged (bad
// spec, boot failure); invariant violations are reported in Report.Checks
// with Passed false, not as errors.
func Run(spec *Spec, opts Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	logf := func(string, ...any) {}
	if opts.Log != nil {
		logf = func(format string, args ...any) { fmt.Fprintf(opts.Log, format+"\n", args...) }
	}
	boot := *spec
	if boot.Seed == 0 {
		boot.Seed = 1
	}
	if opts.Machine != "" {
		boot.Machine = opts.Machine
	}
	front := Front{Addr: "127.0.0.1:0", TraceCap: 8192, Logf: logf}
	if opts.Admin {
		front.Admin = "127.0.0.1:0"
	}

	goroutineBase := runtime.NumGoroutine()
	start := time.Now()
	st, err := Boot(&boot, front)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	logf("chaos: %s: serving on %s (machine %s, seed %d)", spec.Name, st.Server.Addr(), st.Machine.Cfg.Name, boot.Seed)

	// With an admin surface the run watches its own /stats/delta — it
	// observes itself over the same HTTP long-poll a human would.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	var deltas atomic.Int64
	var watched chan struct{}
	if st.Admin != nil {
		watched = make(chan struct{})
		go watchDeltas(watchCtx, st.Admin.String(), &deltas, watched)
		logf("chaos: admin on http://%s", st.Admin)
	}

	load := spec.Load.LoadConfig
	load.Addr, load.Seed, load.StaleBound = st.Server.Addr().String(), boot.Seed, time.Duration(spec.Load.StaleBound)
	res, loadErr := server.RunLoad(load)
	logf("chaos: load done: %d commands, %d busy, %d errors, %d mismatches",
		res.Commands, res.Busy, res.Errors, res.Mismatches)

	// The schedule may reach past the load (a late crash lands on probe
	// traffic); let it finish before judging anything.
	schedCtx, schedCancel := context.WithTimeout(context.Background(), Horizon(spec.Steps)+5*time.Second)
	schedErr := st.sched.Wait(schedCtx)
	schedCancel()

	// Quiesce: asynchronous failover machinery (probe -> ship -> promote)
	// needs wall time to reach the declared counts, so every bound but the
	// load's (final already) is polled, bounded, until they all hold; what
	// they say when the stack goes down is the verdict. The watcher, which a
	// short run can leave inside its first long-poll, gets the same time to
	// see its one delta per step.
	settling := maps.Clone(spec.Invariants.Counters)
	maps.DeleteFunc(settling, func(name string, _ Bound) bool { return strings.HasPrefix(name, "load.") })
	o := observed{load: res, tracer: st.Sys.Tracer()}
	waitUntil(quiesceTimeout, func() bool {
		o.snap, o.nodes = st.Sys.Stats(), st.Router.Topology()
		return !slices.ContainsFunc(o.check(settling), func(c Check) bool { return !c.OK }) &&
			(watched == nil || deltas.Load() >= int64(len(spec.Steps)))
	})

	rep := &Report{Scenario: spec.Name, Seed: boot.Seed, Load: res, Faults: st.Machine.Faults.Points(),
		Checks: []Check{errCheck("load-transport", loadErr), errCheck("schedule", schedErr)}}
	o.nodes = st.Router.Topology()
	pending := st.Router.PendingFrames()

	stopWatch() // before the admin surface goes down
	if watched != nil {
		<-watched
		rep.DeltasObserved = int(deltas.Load())
	}
	var shutdownErr, leakErr error
	rep.Steps, shutdownErr, leakErr = st.Teardown()
	goroutinesOK := waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutineBase })
	rep.Elapsed = time.Since(start)
	o.snap = st.Sys.Stats()
	evaluate(rep, spec, o, opts.Admin)
	rep.Checks = append(rep.Checks, errCheck("shutdown", shutdownErr), errCheck("drain-frames", leakErr),
		Check{Name: "drain-pending", OK: pending == 0, Detail: fmt.Sprintf("%d urpc frames pending", pending)},
		Check{Name: "drain-goroutines", OK: goroutinesOK, Detail: "goroutine count back to baseline"})
	rep.Passed = len(rep.Failed()) == 0
	return rep, nil
}

// errCheck is the check that err is nil.
func errCheck(name string, err error) Check {
	if err != nil {
		return Check{Name: name, Detail: err.Error()}
	}
	return Check{Name: name, OK: true}
}

// evaluate judges what the spec declares: its counter bounds, with what fails
// any load bounded at zero (load.errors the one a spec may bound instead —
// Validate refuses a bound on the others); p99; the steps; and,
// with the admin surface on, one streamed delta per step.
func evaluate(rep *Report, spec *Spec, o observed, adminOn bool) {
	inv := &spec.Invariants
	add := func(name string, ok bool, detail string) {
		rep.Checks = append(rep.Checks, Check{Name: name, OK: ok, Detail: detail})
	}
	bounds := map[string]Bound{}
	for name := range o.load.Failures() {
		bounds["load."+name] = Bound{Max: new(uint64)}
	}
	maps.Copy(bounds, inv.Counters)
	rep.Checks = append(rep.Checks, o.check(bounds)...)
	if inv.MaxP99 > 0 {
		p99 := time.Duration(o.load.Latency.Quantile(0.99))
		add("latency-p99", p99 <= time.Duration(inv.MaxP99),
			fmt.Sprintf("p99 %v (max %v)", p99, time.Duration(inv.MaxP99)))
	}
	if inv.StepsMustFire {
		i := slices.IndexFunc(rep.Steps, func(s StepReport) bool { return s.Fired == 0 || s.Err != "" })
		detail := ""
		if i >= 0 {
			s := rep.Steps[i]
			detail = strings.TrimSuffix(fmt.Sprintf("step %d (%s) never fired: %s", s.Step, s.Point, s.Err), ": ")
		}
		add("steps-fired", i < 0, detail)
	}
	if adminOn {
		add("stats-delta", rep.DeltasObserved >= len(spec.Steps),
			fmt.Sprintf("%d deltas streamed (min %d: one per step)", rep.DeltasObserved, len(spec.Steps)))
	}
}

// observed is what a run exposes for its bounds to read: the stats schema,
// the load's result, the trace ring and the nodes' records.
type observed struct {
	snap   *stats.Snapshot
	load   *server.LoadResult
	tracer *stats.Tracer
	nodes  []server.NodeHealth
}

// value resolves a counter name — the one place a name means anything. On the
// zero observed it checks the name against the types alone.
func (o observed) value(name string) (uint64, error) {
	scope, rest, _ := strings.Cut(name, ".")
	switch {
	case scope == "load":
		return stats.Counter(o.load, rest)
	case scope == "trace":
		kind, ok := stats.EventKindByName(rest)
		if !ok {
			return 0, fmt.Errorf("%q: unknown trace event kind", name)
		}
		return o.tracer.Count(kind), nil
	case name == "health.degraded":
		degraded := uint64(0)
		for _, n := range o.nodes {
			if n.Degraded {
				degraded++
			}
		}
		return degraded, nil
	}
	return stats.Counter(o.snap, name)
}

// check evaluates bounds, one check per name in name order: the one judge of
// a counter, which Run's quiesce polls and evaluate reports.
func (o observed) check(bounds map[string]Bound) []Check {
	var out []Check
	for _, name := range slices.Sorted(maps.Keys(bounds)) {
		b := bounds[name]
		got, err := o.value(name)
		ok := err == nil
		var want []string
		if b.Min > 0 {
			ok = ok && got >= b.Min
			want = append(want, fmt.Sprintf("min %d", b.Min))
		}
		if b.Max != nil {
			ok = ok && got <= *b.Max
			want = append(want, fmt.Sprintf("max %d", *b.Max))
		}
		if b.Eq != nil {
			ok = ok && got == *b.Eq
			want = append(want, fmt.Sprintf("exactly %d", *b.Eq))
		}
		if b.MaxFrac != nil {
			limit := uint64(*b.MaxFrac * float64(o.load.Commands))
			ok = ok && got <= limit
			want = append(want, fmt.Sprintf("max %d = %g of %d commands", limit, *b.MaxFrac, o.load.Commands))
		}
		out = append(out, Check{Name: name, OK: ok, Detail: fmt.Sprintf("%d (want %s)", got, strings.Join(want, ", "))})
	}
	return out
}

func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// watchDeltas loops on the admin surface's /stats/delta long-poll for the
// run's duration and counts the changed deltas it sees into count, closing done
// on return — the live observer the acceptance criteria ask for, exercised on
// every Admin run.
func watchDeltas(ctx context.Context, addr string, count *atomic.Int64, done chan<- struct{}) {
	defer close(done)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	cursor := ""
	for ctx.Err() == nil {
		url := "http://" + addr + "/stats/delta?wait=250ms"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			return
		}
		var body struct {
			Cursor  uint64 `json:"cursor"`
			Changed bool   `json:"changed"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			// A lost cursor (410) restarts the stream from scratch.
			cursor = ""
			if resp.StatusCode != http.StatusGone {
				return
			}
			continue
		}
		if body.Changed {
			count.Add(1)
		}
		cursor = fmt.Sprintf("%d", body.Cursor)
	}
}
