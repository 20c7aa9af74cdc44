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
// accumulated over its armed window (for a kill step, Fired 1 on success).
type StepReport struct {
	Step   int    `json:"step"`
	Point  string `json:"point"`
	Target int    `json:"target"` // -1 = any
	Hits   uint64 `json:"hits"`
	Fired  uint64 `json:"fired"`
	Err    string `json:"err,omitempty"`
}

// ScheduleRun is a schedule playing out against a live registry. Wait
// blocks until every timed event has been applied and returns the reports;
// steps whose windows were still open when the schedule ended (For of zero)
// carry zero counters until FinalizeReports reads them.
type ScheduleRun struct {
	done    chan struct{}
	reports []StepReport
}

// scheduleEvent is one timed action on the registry (or an operator hook).
type scheduleEvent struct {
	at    time.Duration
	order int // arms sort before disarms at the same instant
	apply func()
}

// Ops are the operator actions a schedule's pseudo-point steps invoke on
// the cluster under test. Any nil hook turns its steps into recorded
// errors rather than panics, so a partial wiring (tests, single-store
// runs) stays usable.
type Ops struct {
	// Kill hard-kills a node (cluster.node.kill).
	Kill func(node int) error
	// AddNode brings up a new node and returns its id (cluster.node.add).
	// Rebalancing onto it is the hook's business (see RouterOps).
	AddNode func() (int, error)
	// RemoveNode drains and decommissions a node (cluster.node.remove).
	RemoveNode func(node int) error
	// MigrateSlot moves one placement slot to a node (cluster.slot.migrate).
	MigrateSlot func(slot, dst int) error
}

// RouterOps wires every hook to a live router. AddNode is the whole
// operator action: bring the node up and move a fair share of slots onto
// it under the live load.
func RouterOps(r *cluster.Router) Ops {
	return Ops{
		Kill: r.KillNode,
		AddNode: func() (int, error) {
			id, err := r.AddNode()
			if err == nil {
				_, err = r.RebalanceInto(id)
			}
			return id, err
		},
		RemoveNode:  r.RemoveNode,
		MigrateSlot: r.MigrateSlot,
	}
}

// run executes one pseudo-point step, returning a description of what
// happened (for the narration log) or an error.
func (o Ops) run(st Step) (string, error) {
	switch st.Point {
	case PointNodeKill:
		if o.Kill == nil {
			return "", fmt.Errorf("no kill hook wired")
		}
		return fmt.Sprintf("killed node %d", *st.Target), o.Kill(*st.Target)
	case PointNodeAdd:
		if o.AddNode == nil {
			return "", fmt.Errorf("no add-node hook wired")
		}
		id, err := o.AddNode()
		return fmt.Sprintf("added node %d", id), err
	case PointNodeRemove:
		if o.RemoveNode == nil {
			return "", fmt.Errorf("no remove-node hook wired")
		}
		return fmt.Sprintf("removed node %d", *st.Target), o.RemoveNode(*st.Target)
	case PointSlotMigrate:
		if o.MigrateSlot == nil {
			return "", fmt.Errorf("no migrate-slot hook wired")
		}
		return fmt.Sprintf("migrated slot %d to node %d", *st.Slot, *st.Target), o.MigrateSlot(*st.Slot, *st.Target)
	}
	return "", fmt.Errorf("not a pseudo-point: %s", st.Point)
}

// StartSchedule begins executing steps against reg. Events at offset zero
// are applied before StartSchedule returns, so a caller that starts load
// right after is guaranteed the whole-run rules were armed first — that
// ordering is what makes a seeded scenario's fired totals reproducible.
// Later events play out on a goroutine until the context is cancelled;
// pseudo-point steps invoke the matching ops hook at their start offset.
// logf (nil ok) narrates events.
func StartSchedule(ctx context.Context, steps []Step, reg *fault.Registry, ops Ops, logf func(format string, args ...any)) *ScheduleRun {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	run := &ScheduleRun{
		done:    make(chan struct{}),
		reports: make([]StepReport, len(steps)),
	}
	var events []scheduleEvent
	for i, st := range steps {
		i, st := i, st
		run.reports[i] = StepReport{Step: i, Point: st.Point, Target: st.target()}
		if pseudoPoints[st.Point] {
			events = append(events, scheduleEvent{at: time.Duration(st.After), order: 0, apply: func() {
				what, err := ops.run(st)
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
		events = append(events, scheduleEvent{at: time.Duration(st.After), order: 0, apply: func() {
			reg.EnableAt(st.Point, st.target(), desc, policy)
			logf("chaos: step %d: armed %s target %d (%s)", i, st.Point, st.target(), desc)
		}})
		if st.For > 0 {
			events = append(events, scheduleEvent{at: time.Duration(st.After) + time.Duration(st.For), order: 1, apply: func() {
				// Read the counters before DisableAt discards them.
				run.reports[i].Hits, run.reports[i].Fired = reg.StatusAt(st.Point, st.target())
				reg.DisableAt(st.Point, st.target())
				logf("chaos: step %d: disarmed %s target %d (%d/%d fired)", i, st.Point, st.target(), run.reports[i].Fired, run.reports[i].Hits)
			}})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].order < events[b].order
	})

	next := 0
	for next < len(events) && events[next].at <= 0 {
		events[next].apply()
		next++
	}
	if next >= len(events) {
		close(run.done)
		return run
	}
	go func() {
		defer close(run.done)
		start := time.Now()
		timer := time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
		for _, ev := range events[next:] {
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
	return run
}

// Wait blocks until the schedule has applied every event (or its context
// was cancelled mid-run) and returns the step reports. The ctx here bounds
// the wait itself.
func (s *ScheduleRun) Wait(ctx context.Context) ([]StepReport, error) {
	select {
	case <-s.done:
		return s.reports, nil
	case <-ctx.Done():
		return s.reports, fmt.Errorf("chaos: schedule still running: %w", ctx.Err())
	}
}

// FinalizeReports fills in the counters of steps whose rules were armed to
// the end of the run (For of zero): their windows never closed, so their
// totals are read from the live registry now.
func FinalizeReports(reg *fault.Registry, steps []Step, reports []StepReport) {
	for i, st := range steps {
		if pseudoPoints[st.Point] || st.For > 0 || i >= len(reports) {
			continue
		}
		reports[i].Hits, reports[i].Fired = reg.StatusAt(st.Point, st.target())
	}
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
