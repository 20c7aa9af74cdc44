package chaos

import (
	"context"
	"fmt"
	"sort"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/fault"
)

// StepReport is one step's observed outcome: the registry counters its rule
// accumulated over its armed window (for a kill step, Fired 1 on success). A
// rule armed at offset zero is armed before the cluster is built, so its
// totals include what the cluster's own start hit (the monitor's first
// ships), not only what the load did.
type StepReport struct {
	Step   int    `json:"step"`
	Point  string `json:"point"`
	Target int    `json:"target"` // -1 = any
	Hits   uint64 `json:"hits"`
	Fired  uint64 `json:"fired"`
	Err    string `json:"err,omitempty"`
}

// ScheduleRun is a schedule playing out against a live registry. Wait
// blocks until every timed event has been applied; Stop ends it where it
// stands and returns the step reports.
type ScheduleRun struct {
	steps   []Step
	reg     *fault.Registry
	events  []scheduleEvent // what Start plays, in order
	router  *cluster.Router // whom the operator-action steps act on
	stop    context.CancelFunc
	done    chan struct{}
	reports []StepReport
}

// scheduleEvent is one timed action on the registry (or on the router).
type scheduleEvent struct {
	at    time.Duration
	order int // arms sort before disarms at the same instant
	apply func()
}

// NewSchedule compiles steps into a timeline against reg and, before it
// returns, arms the fault rules due at offset zero — so whoever builds the
// cluster under test next is guaranteed the whole-run rules were armed
// first; that ordering is what makes a seeded scenario's fired totals
// reproducible. Nothing else happens until Start. logf (nil ok) narrates
// events.
func NewSchedule(steps []Step, reg *fault.Registry, logf func(format string, args ...any)) *ScheduleRun {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	run := &ScheduleRun{
		steps:   steps,
		reg:     reg,
		done:    make(chan struct{}),
		reports: make([]StepReport, len(steps)),
	}
	for i, st := range steps {
		i, st := i, st
		run.reports[i] = StepReport{Step: i, Point: st.Point, Target: st.target()}
		if act := stepKinds[st.Point].act; act != nil {
			run.events = append(run.events, scheduleEvent{at: time.Duration(st.After), order: 0, apply: func() {
				what, err := act(run.router, st)
				if err != nil {
					run.reports[i].Err = err.Error()
					logf("chaos: step %d: %s: %v", i, st.Point, err)
					return
				}
				run.reports[i].Hits, run.reports[i].Fired = 1, 1
				logf("chaos: step %d: %s", i, what)
			}})
			continue
		}
		policy, desc, err := st.Policy.build()
		if err != nil {
			// Validate rejects this before a runner ever gets here; a
			// hand-built schedule records it instead of panicking.
			run.reports[i].Err = err.Error()
			continue
		}
		arm := func() {
			reg.EnableAt(st.Point, st.target(), desc, policy)
			logf("chaos: step %d: armed %s target %d (%s)", i, st.Point, st.target(), desc)
		}
		if st.After <= 0 {
			arm() // once: Start has no event for it
		} else {
			run.events = append(run.events, scheduleEvent{at: time.Duration(st.After), order: 0, apply: arm})
		}
		if st.For > 0 {
			run.events = append(run.events, scheduleEvent{at: time.Duration(st.After) + time.Duration(st.For), order: 1, apply: func() {
				// Read the counters before DisableAt discards them.
				run.reports[i].Hits, run.reports[i].Fired = reg.StatusAt(st.Point, st.target())
				reg.DisableAt(st.Point, st.target())
				logf("chaos: step %d: disarmed %s target %d (%d/%d fired)", i, st.Point, st.target(), run.reports[i].Fired, run.reports[i].Hits)
			}})
		}
	}
	sort.SliceStable(run.events, func(a, b int) bool {
		if run.events[a].at != run.events[b].at {
			return run.events[a].at < run.events[b].at
		}
		return run.events[a].order < run.events[b].order
	})
	return run
}

// Start plays what NewSchedule left against the router Boot built:
// operator-action steps act on it at their start offset — those at offset
// zero before Start returns — and later arms and disarms play out on a
// goroutine until Stop. Offsets count from here.
func (run *ScheduleRun) Start(r *cluster.Router) {
	run.router = r
	ctx, stop := context.WithCancel(context.Background())
	run.stop = stop
	events := run.events
	for len(events) > 0 && events[0].at <= 0 {
		events[0].apply()
		events = events[1:]
	}
	if len(events) == 0 {
		close(run.done)
		return
	}
	go func() {
		defer close(run.done)
		start := time.Now()
		timer := time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
		for _, ev := range events {
			if wait := ev.at - time.Since(start); wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
			} else if ctx.Err() != nil {
				return
			}
			ev.apply()
		}
	}()
}

// Wait blocks until the schedule has applied every event, as long as ctx
// allows.
func (s *ScheduleRun) Wait(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("chaos: schedule still running: %w", ctx.Err())
	}
}

// Stop ends a started schedule where it stands and returns the step reports.
// The counters of rules still armed (For of zero: their windows never
// closed) are read from the live registry now.
func (s *ScheduleRun) Stop() []StepReport {
	s.stop()
	<-s.done
	for i, st := range s.steps {
		if stepKinds[st.Point].act == nil && st.For == 0 {
			s.reports[i].Hits, s.reports[i].Fired = s.reg.StatusAt(st.Point, st.target())
		}
	}
	return s.reports
}

// Horizon returns the schedule's last event time — how long after start the
// final arm, disarm, or kill lands.
func Horizon(steps []Step) time.Duration {
	var h time.Duration
	for _, st := range steps {
		end := time.Duration(st.After) + time.Duration(st.For)
		if end > h {
			h = end
		}
	}
	return h
}
