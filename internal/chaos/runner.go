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
func (r *Report) Failed() []Check { return failed(r.Checks) }

func failed(checks []Check) []Check {
	var out []Check
	for _, c := range checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// WriteText renders the report for a terminal.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario %s (seed %d): ", r.Scenario, r.Seed)
	if r.Passed {
		fmt.Fprintf(w, "PASS")
	} else {
		fmt.Fprintf(w, "FAIL")
	}
	fmt.Fprintf(w, " in %v\n", r.Elapsed.Round(time.Millisecond))
	if l := r.Load; l != nil {
		fmt.Fprintf(w, "  load: %d commands (%d get, %d set, %d mget), %d busy, %d errors, %d mismatches, %d disconnects\n",
			l.Commands, l.Gets, l.Sets, l.MGets, l.Busy, l.Errors, l.Mismatches, l.Disconnects)
		if l.CrossDenied > 0 || l.CrossLeaks > 0 || l.QuotaRejected > 0 {
			fmt.Fprintf(w, "  tenant: %d cross-view probes denied, %d leaks, %d quota rejections\n",
				l.CrossDenied, l.CrossLeaks, l.QuotaRejected)
		}
		if l.StaleProbes > 0 || l.StaleRejected > 0 || l.StaleViolations > 0 {
			fmt.Fprintf(w, "  stale: %d probes, %d -STALE refusals, %d bound violations\n",
				l.StaleProbes, l.StaleRejected, l.StaleViolations)
		}
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
		if c.Detail != "" {
			fmt.Fprintf(w, "  check %-18s %-4s %s\n", c.Name, mark, c.Detail)
		} else {
			fmt.Fprintf(w, "  check %-18s %s\n", c.Name, mark)
		}
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
	var deltaCount chan int
	if st.Admin != nil {
		deltaCount = make(chan int, 1)
		go watchDeltas(watchCtx, st.Admin.String(), deltaCount)
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
	// needs wall time to reach the declared counts, so the cluster-side
	// invariants are polled, bounded, until they all hold; what they say when
	// the stack goes down is the verdict.
	inv := &spec.Invariants
	waitUntil(quiesceTimeout, func() bool {
		checks := append(inv.clusterChecks(st.Sys.Stats().Dense().Cluster, st.Router.Health()), inv.traceChecks(st.Sys.Tracer())...)
		return len(failed(checks)) == 0
	})

	faults := st.Machine.Faults.Points()
	health := st.Router.Health()
	pending := st.Router.PendingFrames()

	stopWatch() // before the admin surface goes down
	deltas := 0
	if deltaCount != nil {
		deltas = <-deltaCount
	}
	reports, shutdownErr, leakErr := st.Teardown()
	goroutinesOK := waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutineBase })

	rep := &Report{
		Scenario:       spec.Name,
		Seed:           boot.Seed,
		Elapsed:        time.Since(start),
		Load:           res,
		Steps:          reports,
		Faults:         faults,
		DeltasObserved: deltas,
	}
	evaluate(rep, spec, st.Sys.Stats(), health, runState{
		loadErr:      loadErr,
		schedErr:     schedErr,
		shutdownErr:  shutdownErr,
		leakErr:      leakErr,
		pending:      pending,
		goroutinesOK: goroutinesOK,
		adminOn:      opts.Admin,
		tracer:       st.Sys.Tracer(),
	})
	return rep, nil
}

// runState carries the teardown-side evidence into invariant evaluation.
type runState struct {
	loadErr      error
	schedErr     error
	shutdownErr  error
	leakErr      error
	pending      int
	goroutinesOK bool
	adminOn      bool
	tracer       *stats.Tracer
}

func evaluate(rep *Report, spec *Spec, snap *stats.Snapshot, health []server.NodeHealth, st runState) {
	inv := &spec.Invariants
	res := rep.Load
	add := func(name string, ok bool, detail string) {
		rep.Checks = append(rep.Checks, Check{Name: name, OK: ok, Detail: detail})
	}
	errDetail := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}

	add("load-transport", st.loadErr == nil, errDetail(st.loadErr))
	add("schedule", st.schedErr == nil, errDetail(st.schedErr))
	add("verify", res.Mismatches <= inv.MaxMismatches,
		fmt.Sprintf("%d mismatches (max %d)", res.Mismatches, inv.MaxMismatches))
	if spec.Load.StaleReads {
		// The staleness bound is absolute, like tenant isolation: a stale
		// version served silently is always a failure.
		add("stale-violations", res.StaleViolations == 0,
			fmt.Sprintf("%d staleness-bound violations (none allowed)", res.StaleViolations))
		if inv.MinStaleProbes > 0 {
			add("stale-probes", res.StaleProbes >= inv.MinStaleProbes,
				fmt.Sprintf("%d staleness probes completed (min %d)", res.StaleProbes, inv.MinStaleProbes))
		}
	}
	if inv.MaxP99 > 0 {
		p99 := time.Duration(res.Latency.Quantile(0.99))
		add("latency-p99", p99 <= time.Duration(inv.MaxP99),
			fmt.Sprintf("p99 %v (max %v)", p99, time.Duration(inv.MaxP99)))
	}
	if spec.Load.Tenants > 1 && spec.Load.Auth {
		// Isolation is absolute: any data reply to a cross-view probe is a
		// leak, regardless of what the scenario otherwise tolerates.
		add("cross-leaks", res.CrossLeaks == 0,
			fmt.Sprintf("%d cross-view leaks (none allowed)", res.CrossLeaks))
		if inv.MinCrossDenied > 0 {
			add("cross-denied", res.CrossDenied >= inv.MinCrossDenied,
				fmt.Sprintf("%d cross-view probes denied (min %d)", res.CrossDenied, inv.MinCrossDenied))
		}
	}

	switch {
	case inv.MaxErrorFrac != nil:
		limit := uint64(*inv.MaxErrorFrac * float64(res.Commands))
		add("errors", res.Errors <= limit, fmt.Sprintf("%d terminal errors (max %d = %g of %d)",
			res.Errors, limit, *inv.MaxErrorFrac, res.Commands))
	case inv.MaxErrors != nil:
		add("errors", res.Errors <= *inv.MaxErrors,
			fmt.Sprintf("%d terminal errors (max %d)", res.Errors, *inv.MaxErrors))
	default:
		add("errors", res.Errors == 0, fmt.Sprintf("%d terminal errors (none allowed)", res.Errors))
	}
	if inv.MaxBusyFrac != nil {
		limit := uint64(*inv.MaxBusyFrac * float64(res.Commands))
		add("busy", res.Busy <= limit, fmt.Sprintf("%d retryable refusals (max %d = %g of %d)",
			res.Busy, limit, *inv.MaxBusyFrac, res.Commands))
	}

	rep.Checks = append(rep.Checks, inv.clusterChecks(snap.Dense().Cluster, health)...)
	if inv.MinDisconnects > 0 {
		add("disconnects", res.Disconnects >= inv.MinDisconnects,
			fmt.Sprintf("%d disconnects survived (min %d)", res.Disconnects, inv.MinDisconnects))
	}
	if inv.StepsMustFire {
		ok := true
		detail := ""
		for _, s := range rep.Steps {
			if s.Fired == 0 || s.Err != "" {
				ok = false
				detail = fmt.Sprintf("step %d (%s) never fired", s.Step, s.Point)
				if s.Err != "" {
					detail += ": " + s.Err
				}
				break
			}
		}
		add("steps-fired", ok, detail)
	}
	rep.Checks = append(rep.Checks, inv.traceChecks(st.tracer)...)

	if st.adminOn {
		add("stats-delta", rep.DeltasObserved >= len(spec.Steps),
			fmt.Sprintf("%d deltas streamed (min %d: one per step)", rep.DeltasObserved, len(spec.Steps)))
	}
	add("shutdown", st.shutdownErr == nil, errDetail(st.shutdownErr))
	add("drain-frames", st.leakErr == nil, errDetail(st.leakErr))
	add("drain-pending", st.pending == 0, fmt.Sprintf("%d urpc frames pending", st.pending))
	add("drain-goroutines", st.goroutinesOK, "goroutine count back to baseline")

	rep.Passed = len(rep.Failed()) == 0
}

// clusterChecks are the invariants on what the cluster itself counted and on
// its nodes' health: the ones that settle after the load, so Run polls them
// to quiesce and evaluate reports them — each is written here and nowhere else.
func (inv *Invariants) clusterChecks(cl *stats.ClusterSnap, health []server.NodeHealth) []Check {
	var out []Check
	add := func(name string, ok bool, detail string) {
		out = append(out, Check{Name: name, OK: ok, Detail: detail})
	}
	repl, mig, ovl := cl.Replication, cl.Migration, cl.Overload
	local, remote := cl.Local, cl.Remote
	if p := inv.Promotions; p != nil {
		add("promotions", repl.Promotions == *p,
			fmt.Sprintf("%d promotions (want exactly %d)", repl.Promotions, *p))
	}
	if inv.MinShips > 0 {
		add("ships", repl.Ships >= inv.MinShips,
			fmt.Sprintf("%d checkpoint ships (min %d)", repl.Ships, inv.MinShips))
	}
	if max := inv.MaxShipBytesPerShip; max > 0 {
		add("ship-bytes", repl.Ships > 0 && repl.ShipBytes/repl.Ships <= max,
			fmt.Sprintf("%d bytes over %d ships, %d of them full (max %d per ship)", repl.ShipBytes, repl.Ships, repl.FullShips, max))
	}
	if l := inv.MaxLostUpdates; l != nil {
		add("lost-updates", repl.LostUpdates <= *l,
			fmt.Sprintf("%d lost updates (max %d)", repl.LostUpdates, *l))
	}
	if inv.MinSlotMoves > 0 {
		add("slot-moves", mig.SlotMoves >= inv.MinSlotMoves,
			fmt.Sprintf("%d slot migrations (min %d)", mig.SlotMoves, inv.MinSlotMoves))
	}
	if f := inv.SlotMoveFailures; f != nil {
		add("slot-move-failures", mig.SlotMoveFailures == *f,
			fmt.Sprintf("%d failed slot migrations (want exactly %d)", mig.SlotMoveFailures, *f))
	}
	if d := inv.Degraded; d != nil {
		got := countDegraded(health)
		add("degraded", got == *d, fmt.Sprintf("%d degraded ranges (want exactly %d)", got, *d))
	}
	if inv.MinDegradedReads > 0 {
		add("degraded-reads", ovl.DegradedReads >= inv.MinDegradedReads,
			fmt.Sprintf("%d reads degraded to stale views (min %d)", ovl.DegradedReads, inv.MinDegradedReads))
	}
	if inv.MinBreakerOpens > 0 {
		add("breaker-opens", ovl.BreakerOpens >= inv.MinBreakerOpens,
			fmt.Sprintf("%d breaker trips (min %d)", ovl.BreakerOpens, inv.MinBreakerOpens))
	}
	if inv.MinLocal > 0 {
		add("local", local >= inv.MinLocal,
			fmt.Sprintf("%d commands on the shared-VAS path (min %d)", local, inv.MinLocal))
	}
	if inv.MinRemote > 0 {
		add("remote", remote >= inv.MinRemote,
			fmt.Sprintf("%d commands over urpc (min %d)", remote, inv.MinRemote))
	}
	return out
}

// traceChecks are the minimum trace-event counts, by kind name in order.
func (inv *Invariants) traceChecks(t *stats.Tracer) []Check {
	var out []Check
	for _, name := range slices.Sorted(maps.Keys(inv.MinTraceEvents)) {
		want := inv.MinTraceEvents[name]
		kind, _ := stats.EventKindByName(name) // Validate refused unknown names
		got := t.Count(kind)
		out = append(out, Check{Name: "trace:" + name, OK: got >= want, Detail: fmt.Sprintf("%d %s events (min %d)", got, name, want)})
	}
	return out
}

func countDegraded(health []server.NodeHealth) int {
	n := 0
	for _, h := range health {
		if h.Degraded {
			n++
		}
	}
	return n
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
// run's duration and reports how many changed deltas it saw — the live
// observer the acceptance criteria ask for, exercised on every Admin run.
func watchDeltas(ctx context.Context, addr string, out chan<- int) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	count := 0
	defer func() { out <- count }()
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
			count++
		}
		cursor = fmt.Sprintf("%d", body.Cursor)
	}
}
