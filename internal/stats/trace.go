package stats

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvVASSwitch is one vas_switch: A = the handle switched to.
	EvVASSwitch EventKind = iota
	// EvSegAttach is a segment attach: A = VAS id, B = segment id.
	EvSegAttach
	// EvFault is a fault-injection point firing: Label = the point name.
	EvFault
	// EvURPCRetry is a urpc request re-send: A = sequence number, B = try.
	EvURPCRetry
	// EvConnOpen is a serving-layer connection accept: A = connection id,
	// B = the shard it was assigned to.
	EvConnOpen
	// EvConnClose is a serving-layer connection teardown: A = connection
	// id, B = commands served on it.
	EvConnClose
	// EvRemoteCall is one cluster command served over urpc: A = the shard
	// node it was routed to, B = the worker-core cycles it cost end to end.
	EvRemoteCall
	// EvNodeState is a cluster node health transition: A = the node,
	// Label = the state entered.
	EvNodeState
	// EvCheckpointShip is one checkpoint generation shipped to a node's
	// replica: A = the node, B = payload bytes moved.
	EvCheckpointShip
	// EvPromotion is a replica promoted to serve a dead node's key range:
	// A = the node, B = delta entries replayed; Label carries the lost
	// update count when the delta window overflowed.
	EvPromotion
	// EvSlotMove is one slot migrated between nodes: A = the slot,
	// B = keys moved; Label = "src->dst".
	EvSlotMove
	// EvSlotMoveFailed is a slot migration aborted and rolled back:
	// A = the slot; Label = "src->dst: reason".
	EvSlotMoveFailed
	// EvNodeAdded is a node joined to the live cluster: A = the node.
	EvNodeAdded
	// EvNodeRemoved is a node drained and retired from the live cluster:
	// A = the node.
	EvNodeRemoved
	// EvFork is a frozen COW view forked off a node's live shard:
	// A = the node, B = the fork generation.
	EvFork
	// EvForkRelease is a frozen view released, its private frames returned
	// to the allocator: A = the node, B = the fork generation.
	EvForkRelease
	// EvForkInvalidate is outstanding frozen views fenced off a node by a
	// promotion or slot flip: A = the node, B = views invalidated,
	// Label = the reason.
	EvForkInvalidate
	// EvBreakerState is a node circuit-breaker transition: A = the node,
	// Label = "from->to" ("closed->open", "open->half-open", ...).
	EvBreakerState

	// NumEvents is the number of event kinds.
	NumEvents = int(EvBreakerState) + 1
)

// eventTable is where a kind is spelled out, one row each: its name — what
// /trace, the text dump and a scenario's trace.<kind> bound call it — and how
// its payload prints after "#seq name ", over (Core, PID, A, B, Label) by
// argument index. labelled is appended when the event carries a label the
// kind does not always have.
var eventTable = [NumEvents]struct{ name, payload, labelled string }{
	EvVASSwitch:      {name: "vas-switch", payload: " core=%[1]d pid=%[2]d handle=%[3]d"},
	EvSegAttach:      {name: "seg-attach", payload: " core=%[1]d pid=%[2]d vas=%[3]d seg=%[4]d"},
	EvFault:          {name: "fault", payload: " %[5]s"},
	EvURPCRetry:      {name: "urpc-retry", payload: " core=%[1]d seq=%[3]d try=%[4]d"},
	EvConnOpen:       {name: "conn-open", payload: " conn=%[3]d shard=%[4]d"},
	EvConnClose:      {name: "conn-close", payload: " conn=%[3]d commands=%[4]d"},
	EvRemoteCall:     {name: "remote-call", payload: " node=%[3]d cycles=%[4]d"},
	EvNodeState:      {name: "node-state", payload: " node=%[3]d state=%[5]s"},
	EvCheckpointShip: {name: "checkpoint-ship", payload: " node=%[3]d bytes=%[4]d"},
	EvPromotion:      {name: "promotion", payload: " node=%[3]d replayed=%[4]d", labelled: " lost=%[5]s"},
	EvSlotMove:       {name: "slot-move", payload: " slot=%[3]d keys=%[4]d %[5]s"},
	EvSlotMoveFailed: {name: "slot-move-failed", payload: " slot=%[3]d %[5]s"},
	EvNodeAdded:      {name: "node-added", payload: " node=%[3]d"},
	EvNodeRemoved:    {name: "node-removed", payload: " node=%[3]d"},
	EvFork:           {name: "fork", payload: " node=%[3]d gen=%[4]d"},
	EvForkRelease:    {name: "fork-release", payload: " node=%[3]d gen=%[4]d"},
	EvForkInvalidate: {name: "fork-invalidate", payload: " node=%[3]d views=%[4]d reason=%[5]s"},
	EvBreakerState:   {name: "breaker-state", payload: " node=%[3]d %[5]s"},
}

func (k EventKind) String() string {
	if int(k) < NumEvents {
		return eventTable[k].name
	}
	return "event(?)"
}

// EventKindByName is String's inverse over the declared kinds.
func EventKindByName(name string) (EventKind, bool) {
	for k, row := range eventTable {
		if row.name == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event is one typed trace record. Seq is a 1-based total order over all
// recorded events, assigned by the Tracer; A and B are kind-specific
// payloads; Core is -1 when no core is attributable.
type Event struct {
	Seq   uint64    `json:"seq"`
	Kind  EventKind `json:"-"`
	Core  int       `json:"core"`
	PID   int       `json:"pid,omitempty"`
	A     uint64    `json:"a,omitempty"`
	B     uint64    `json:"b,omitempty"`
	Label string    `json:"label,omitempty"`
}

func (e Event) String() string {
	head := fmt.Sprintf("#%d %v", e.Seq, e.Kind)
	if int(e.Kind) >= NumEvents {
		return head
	}
	row := eventTable[e.Kind]
	if e.Label != "" {
		row.payload += row.labelled
	}
	return head + fmt.Sprintf(row.payload, e.Core, e.PID, e.A, e.B, e.Label)
}

// Tracer is a bounded ring of trace events. When the ring is full the
// oldest events are overwritten; per-kind totals keep counting, so event
// counts survive overflow even though the events themselves do not.
type Tracer struct {
	mu       sync.Mutex
	ring     []Event
	recorded uint64 // total events ever recorded

	counts [NumEvents]atomic.Uint64
}

// NewTracer creates a ring holding at most capacity events (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Record appends an event, assigning its sequence number and overwriting
// the oldest event if the ring is full. Safe on nil.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	if int(e.Kind) < NumEvents {
		t.counts[e.Kind].Add(1)
	}
	t.mu.Lock()
	t.recorded++
	e.Seq = t.recorded
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[int((t.recorded-1)%uint64(cap(t.ring)))] = e
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.ring))
	if t.recorded <= uint64(cap(t.ring)) {
		copy(out, t.ring)
		return out
	}
	// Ring has wrapped: the oldest retained event sits right after the
	// write cursor.
	head := int(t.recorded % uint64(cap(t.ring)))
	n := copy(out, t.ring[head:])
	copy(out[n:], t.ring[:head])
	return out
}

// Recorded returns the total number of events ever recorded.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded
}

// Dropped returns how many events were overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recorded <= uint64(cap(t.ring)) {
		return 0
	}
	return t.recorded - uint64(cap(t.ring))
}

// Count returns the total number of events of kind k ever recorded,
// including events since overwritten — the counter a regression test
// compares against System.Switches().
func (t *Tracer) Count(k EventKind) uint64 {
	if t == nil || int(k) >= NumEvents {
		return 0
	}
	return t.counts[k].Load()
}
