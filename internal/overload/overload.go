// Package overload implements the cluster's overload-protection
// primitives: cycle-denominated request deadline budgets and per-node
// circuit breakers.
//
// Both types are deliberately free of simulator dependencies — a Budget is
// arithmetic over a core's cycle counter readings, a Breaker is a small
// state machine over wall-clock time — so the router, the urpc retry loop
// and the tests all share one implementation. The integration contract:
//
//   - A request that carries a deadline arms a Budget against the serving
//     worker's core cycle counter when execution starts. Every layer that
//     is about to wait (a remote dispatch, a retry backoff) asks the budget
//     what remains and refuses or caps the wait accordingly, so a request
//     fails fast with a typed retryable -DEADLINE instead of queueing
//     doomed work behind a slow node.
//
//   - A Breaker guards one remote node. Call outcomes and health-monitor
//     probe evidence feed Failure/Success; the closed→open→half-open
//     machine decides admission. An open breaker sheds writes immediately
//     (-SHARDTIMEOUT, retryable) while reads degrade to the node's frozen
//     fork view; half-open admits exactly one probe call whose outcome
//     recloses or reopens the breaker.
package overload

import (
	"sync"
	"time"
)

// Budget tracks one request's remaining cycle allowance as it crosses
// serving layers. It is armed against a core's monotonic cycle counter:
// the cycles the core burns while serving the request — edge charges, VAS
// switches, urpc busy-waits, retry backoff — are exactly what drains it.
// A Budget with Total == 0 carries no deadline and never expires.
//
// Budget is a value type owned by one worker goroutine per request; it
// needs no locking.
type Budget struct {
	// Total is the request's full cycle allowance; 0 means no deadline.
	Total uint64
	// start is the core's cycle reading when the budget was armed.
	start uint64
}

// Arm binds a cycle allowance to a core's current cycle reading. total == 0
// arms an inactive budget (no deadline).
func Arm(total, nowCycles uint64) Budget {
	return Budget{Total: total, start: nowCycles}
}

// Active reports whether the request carries a deadline at all.
func (b Budget) Active() bool { return b.Total != 0 }

// Spent returns the cycles consumed since the budget was armed.
func (b Budget) Spent(nowCycles uint64) uint64 {
	if nowCycles < b.start {
		return 0
	}
	return nowCycles - b.start
}

// Remaining returns the cycles left before the deadline, 0 when exhausted.
// An inactive budget reports 0 — callers must gate on Active first.
func (b Budget) Remaining(nowCycles uint64) uint64 {
	if !b.Active() {
		return 0
	}
	spent := b.Spent(nowCycles)
	if spent >= b.Total {
		return 0
	}
	return b.Total - spent
}

// Exhausted reports whether an active budget has run dry.
func (b Budget) Exhausted(nowCycles uint64) bool {
	return b.Active() && b.Spent(nowCycles) >= b.Total
}

// Covers reports whether the budget can still afford a wait of the given
// cycles. An inactive budget covers everything.
func (b Budget) Covers(nowCycles, cycles uint64) bool {
	return !b.Active() || b.Remaining(nowCycles) >= cycles
}

// Cycles converts a wall-clock allowance to cycles at a clock rate in GHz
// (cycles per nanosecond) — the machine configs' unit. Non-positive inputs
// yield 0 (no deadline).
func Cycles(d time.Duration, ghz float64) uint64 {
	if d <= 0 || ghz <= 0 {
		return 0
	}
	return uint64(float64(d.Nanoseconds()) * ghz)
}

// State is a circuit breaker's position.
type State int32

const (
	// Closed admits every call; consecutive failures count toward the trip
	// threshold, any success resets the count.
	Closed State = iota
	// Open fails every call fast until the cooldown elapses.
	Open
	// HalfOpen admits exactly one probe call; its outcome recloses or
	// reopens the breaker.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "state(?)"
}

// BreakerConfig sizes a circuit breaker. The defaults are the caller's
// (cluster.Config.WithDefaults): nothing is resolved here.
type BreakerConfig struct {
	// Threshold is the consecutive failures that trip a closed breaker open.
	Threshold int
	// Cooldown is how long an open breaker fails fast before admitting a
	// half-open probe.
	Cooldown time.Duration
}

// Breaker is one remote node's circuit breaker. Multiple workers and the
// health monitor feed it concurrently; a mutex keeps the state machine
// consistent. The optional onChange hook fires inside the state lock on
// every transition — keep it cheap (the router uses it to bump counters
// and trace the transition).
type Breaker struct {
	cfg      BreakerConfig
	onChange func(from, to State)

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // half-open: the single probe slot is taken
}

// NewBreaker builds a closed breaker. onChange may be nil.
func NewBreaker(cfg BreakerConfig, onChange func(from, to State)) *Breaker {
	return &Breaker{cfg: cfg, onChange: onChange}
}

// State returns the breaker's current position without advancing it: an
// open breaker past its cooldown still reports Open until a call asks for
// admission. Use Allow on the call path.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow asks to admit one call now. ok reports admission; probe reports
// that the call was admitted as the half-open probe — the caller must
// report its outcome via Success or Failure, which recloses or reopens
// the breaker.
func (b *Breaker) Allow() (ok, probe bool) { return b.allowAt(time.Now()) }

func (b *Breaker) allowAt(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		b.transition(HalfOpen)
		b.probing = true
		return true, true
	case HalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
	return false, false
}

// Success reports a completed call (or a successful health probe).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	switch b.state {
	case HalfOpen:
		b.probing = false
		b.transition(Closed)
	case Open:
		// A straggler from before the trip: ignored. The breaker only
		// recloses through a half-open probe.
	}
}

// ProbeSuccess reports a successful health probe. Unlike Success, probe
// evidence may reclose an open breaker directly: the monitor keeps probing
// nodes the data path is shedding, so its success is exactly the half-open
// probe a fully-degraded read path would never get to send. The cooldown
// still gates reclosure — one lucky probe mid-storm must not flap the
// breaker — and the transition goes through half-open so the trace shows
// the same recovery path a data-path probe would.
func (b *Breaker) ProbeSuccess() { b.probeSuccessAt(time.Now()) }

func (b *Breaker) probeSuccessAt(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	switch b.state {
	case HalfOpen:
		b.probing = false
		b.transition(Closed)
	case Open:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return
		}
		b.transition(HalfOpen)
		b.transition(Closed)
	}
}

// Failure reports a failed call or a failed health probe.
func (b *Breaker) Failure() { b.failureAt(time.Now()) }

func (b *Breaker) failureAt(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.openedAt = now
			b.transition(Open)
		}
	case HalfOpen:
		// The probe failed (or straggler evidence arrived): reopen and
		// restart the cooldown.
		b.probing = false
		b.openedAt = now
		b.transition(Open)
	case Open:
		// Stragglers while open don't extend the cooldown — admitted calls
		// stopped at the trip, so this is in-flight residue.
	}
}

// transition flips the state and fires the hook. Caller holds b.mu.
func (b *Breaker) transition(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onChange != nil {
		b.onChange(from, to)
	}
}
