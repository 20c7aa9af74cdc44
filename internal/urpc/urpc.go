// Package urpc implements user-level RPC over shared-memory channels in the
// style of Barrelfish UMP / FastForward (paper §5.1, Figure 7): circular
// buffers of cache-line-sized messages polled by sender and receiver. Each
// line moved between cores costs a cache-line transfer, more when the cores
// sit on different sockets (URPC L vs URPC X in the figure).
//
// Calls execute the server handler inline but attribute every cycle to the
// correct simulated core: the client core is charged for its sends,
// receives, and the busy-wait while the server works; the server core is
// charged for its receives, dispatch, handler work, and sends. Post splits
// the busy-wait off: the client is charged its own lines and gets the
// server's turn back, to wait out when it needs the response. The paper's
// GUPS message-passing baseline (§5.2) is built on this layer too.
//
// The transport is lossy under fault injection: an armed fault.URPCDrop
// point silently discards a message after the sender paid for it, and
// fault.URPCDelay stalls the sender. Endpoint.Call layers an at-most-once
// RPC protocol on top — sequence-numbered requests, a server-side duplicate
// cache, and bounded timeout/retry with exponential backoff — so callers
// see degraded latency rather than lost or doubly-applied operations.
package urpc

import (
	"errors"
	"fmt"
	"slices"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
)

// PayloadPerLine is the usable payload of one cache-line message after the
// sequence/valid header.
const PayloadPerLine = arch.CacheLineSize - 8

// DispatchCycles models the receiver's demultiplex-and-dispatch work per
// message batch.
const DispatchCycles = 60

// DelayCycles is the stall charged to a sender when fault.URPCDelay fires:
// the line sits in the sender's store buffer while the interconnect is busy.
const DelayCycles = 5000

// DefaultTimeoutCycles is the client's initial busy-wait before it declares
// a request lost and retries; it doubles on every retry.
const DefaultTimeoutCycles = 1 << 14

// DefaultMaxRetries bounds how many times Call re-sends a request before
// giving up with ErrTimeout.
const DefaultMaxRetries = 8

// MaxBackoffShift caps the exponential backoff doubling: the busy-wait for
// retry t is TimeoutCycles << min(t, MaxBackoffShift). Without the cap a
// large MaxRetries shifts past 63 — in Go that makes the charge wrap to 0
// (a hot spin), and the charges on the way there jump the core's cycle
// counter by absurd amounts.
const MaxBackoffShift = 6

// ErrTimeout reports a Call whose request or response kept getting lost:
// every retry timed out without a matching response arriving. Call returns
// a *TimeoutError, which wraps both this sentinel and core.ErrTimeout.
var ErrTimeout = errors.New("urpc: call timed out")

// TimeoutError is the typed error a Call returns when it exhausts its
// retries. It carries the request sequence number and the retry count, and
// unwraps to both urpc.ErrTimeout and core.ErrTimeout so routing layers can
// distinguish a retryable transport timeout from a payload error.
type TimeoutError struct {
	Seq     uint64 // sequence number of the abandoned request
	Retries int    // re-sends performed before giving up
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("urpc: call timed out: seq %d after %d retries", e.Seq, e.Retries)
}

// Unwrap makes errors.Is(err, urpc.ErrTimeout) and errors.Is(err,
// core.ErrTimeout) both hold.
func (e *TimeoutError) Unwrap() []error { return []error{ErrTimeout, core.ErrTimeout} }

// ErrBudget reports a CallBudget abandoned because the caller's cycle
// budget ran out before a response arrived.
var ErrBudget = errors.New("urpc: call budget exhausted")

// BudgetError is the typed error CallBudget returns when the caller's
// remaining cycle budget runs out mid-retry. It unwraps to ErrBudget (so
// routing layers can answer a typed deadline refusal) and also to
// ErrTimeout/core.ErrTimeout — a budget exhaustion is a transport-level
// timeout as far as retryability and crash fencing are concerned, just a
// deadline-shaped one.
type BudgetError struct {
	Seq    uint64 // sequence number of the abandoned request
	Budget uint64 // the cycle budget the call started with
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("urpc: call budget exhausted: seq %d after %d cycles", e.Seq, e.Budget)
}

// Unwrap makes errors.Is hold for ErrBudget, ErrTimeout and core.ErrTimeout.
func (e *BudgetError) Unwrap() []error { return []error{ErrBudget, ErrTimeout, core.ErrTimeout} }

// Lines returns the number of cache-line messages needed for n bytes. Every
// transfer uses at least one line (a 64-bit key rides in the header line).
func Lines(n int) uint64 {
	if n <= 0 {
		return 1
	}
	return uint64((n + PayloadPerLine - 1) / PayloadPerLine)
}

// Stats counts channel activity. A frame crosses in bursts, each as many
// of its lines as the ring has free slots for (one, for a frame that fits):
// Sends, Drops and Delays count bursts, Recvs counts whole frames received.
type Stats struct {
	Sends  uint64
	Recvs  uint64
	Lines  uint64
	Drops  uint64 // bursts paid for but lost to fault injection
	Delays uint64 // bursts stalled by fault injection
}

// maxKeptFrame bounds the reassembly buffer a channel keeps between frames.
// A larger frame is reassembled into an allocation of its own, so one huge
// value does not stay pinned to every channel it crossed.
const maxKeptFrame = 64 << 10

// message is one ring slot: one cache line carrying at most PayloadPerLine
// payload bytes, held in the slot itself. The frame's sequence number and a
// last-fragment flag ride in the line's 8-byte header (already accounted
// for in PayloadPerLine), out of band of the payload, so transfer costs
// depend only on payload size. A value longer than one line is framed
// across consecutive slots and reassembled by the receiver — the multi-slot
// framing variable-length cluster values need.
type message struct {
	seq  uint64
	last bool  // final fragment of its frame
	n    uint8 // payload bytes used
	data [PayloadPerLine]byte
}

// Channel is a one-directional ring of cache-line messages between two
// cores.
type Channel struct {
	m        *hw.Machine
	tx, rx   int
	ring     []message
	head     int // next slot to read
	count    int // occupied slots
	frames   int // complete frames queued
	perLine  uint64
	stats    Stats
	capacity int
	// frame is the reassembly buffer of a receiver that only looks at a
	// frame until it receives the next one (an endpoint's request).
	frame []byte
}

// NewChannel creates a channel with the given number of message slots from
// core tx to core rx.
func NewChannel(m *hw.Machine, tx, rx, slots int) *Channel {
	perLine := m.Cfg.Cost.CacheLineXfer
	if !m.SameSocket(tx, rx) {
		perLine = m.Cfg.Cost.CacheLineXSoc
	}
	return &Channel{
		m: m, tx: tx, rx: rx,
		ring: make([]message, slots), capacity: slots,
		perLine: perLine,
	}
}

// CrossSocket reports whether the channel spans sockets.
func (c *Channel) CrossSocket() bool { return !c.m.SameSocket(c.tx, c.rx) }

// Stats returns a snapshot of the channel's counters.
func (c *Channel) Stats() Stats { return c.stats }

// burst puts lines more of a frame into the ring's free slots, charging the
// sender per line, and reports whether they survived fault.URPCDrop; end
// says they close the frame. An empty payload is one empty line (the
// 64-bit-key-in-header case). The payload is copied into the slots, so the
// caller may reuse it as soon as burst returns.
func (c *Channel) burst(seq uint64, payload []byte, lines uint64, end bool) bool {
	c.m.Cores[c.tx].AddCycles(lines * c.perLine)
	if c.m.Faults.Fire(fault.URPCDelay) {
		c.m.Cores[c.tx].AddCycles(DelayCycles)
		c.stats.Delays++
	}
	c.stats.Sends++
	c.stats.Lines += lines
	if c.m.Faults.Fire(fault.URPCDrop) {
		c.stats.Drops++
		return false
	}
	for i := uint64(0); i < lines; i++ {
		slot := &c.ring[(c.head+c.count)%c.capacity]
		slot.seq, slot.last = seq, end && i == lines-1
		slot.n = uint8(copy(slot.data[:], payload))
		payload = payload[slot.n:]
		c.count++
	}
	if end {
		c.frames++
	}
	return true
}

// take dequeues the slots of the frame at the head of the ring — through
// its last line, or all the ring holds of it — charging the receiver per
// line and, at the frame's end, one dispatch. The payload of a frame
// numbered seq is appended behind dst, as append does; any other frame is
// drained and dropped. It reports whether seq's frame ended.
func (c *Channel) take(seq uint64, dst []byte) ([]byte, bool) {
	keep, end, lines := c.ring[c.head].seq == seq, false, uint64(0)
	for c.count > 0 && !end {
		slot := &c.ring[c.head]
		if keep {
			dst = append(dst, slot.data[:slot.n]...)
		}
		end = slot.last
		c.head = (c.head + 1) % c.capacity
		c.count--
		lines++
	}
	cost := lines * c.perLine
	if end {
		c.frames--
		c.stats.Recvs++
		cost += DispatchCycles
	}
	c.m.Cores[c.rx].AddCycles(cost)
	return dst, keep && end
}

// transfer moves one frame of any size across the channel and returns it
// appended behind dst, as append does (exactly the frame's size for a nil
// dst). The sender fills the ring's free slots, the receiver drains them,
// and so on until the last line is through: a frame that fits the ring is
// one burst. Each side pays per line and the receiver one dispatch per
// frame, however many bursts it took. A burst lost to
// fault.URPCDrop loses the frame, and transfer reports false. Frames of
// other sequence numbers found in the ring are drained and dropped.
func (c *Channel) transfer(seq uint64, payload, dst []byte) ([]byte, bool) {
	got := grow(dst, len(payload))
	for left := Lines(len(payload)); ; {
		n := min(left, uint64(c.capacity-c.count))
		k := min(len(payload), int(n)*PayloadPerLine)
		left -= n
		sent := n == 0 || c.burst(seq, payload[:k], n, left == 0)
		payload = payload[k:]
		for c.count > 0 {
			var end bool
			if got, end = c.take(seq, got); end {
				return got, true
			}
		}
		if !sent {
			return nil, false
		}
	}
}

// grow returns dst with room for n more bytes: exactly n for a nil dst.
func grow(dst []byte, n int) []byte {
	if dst == nil {
		return make([]byte, 0, n)
	}
	return slices.Grow(dst, n)
}

// Len returns the number of queued messages (complete frames, however many
// slots each occupies).
func (c *Channel) Len() int { return c.frames }

// Handler processes a request and produces a response. It runs with the
// server core's cycle counter active: any simulated memory work it performs
// through that core is charged there.
//
// req is the request channel's reassembly buffer: it is valid until the
// handler returns and is overwritten by the next request, so a handler
// that keeps any of it must copy. The response is read by the endpoint —
// sent, and held as the at-most-once cache's answer to a retry of the same
// request — until the handler is next called; from then on its memory is
// the handler's to reuse.
type Handler func(req []byte) []byte

// Endpoint is a bidirectional RPC binding between a client core and a
// server core.
type Endpoint struct {
	m              *hw.Machine
	client, server int
	req, resp      *Channel
	handler        Handler

	// MaxRetries and TimeoutCycles govern Call's retry loop on a lossy
	// channel; Connect sets the defaults.
	MaxRetries    int
	TimeoutCycles uint64

	nextSeq uint64 // client: next request sequence number

	// Server-side at-most-once duplicate cache: a retried request whose
	// original was already executed gets the cached response instead of
	// running the handler twice (the handler may not be idempotent —
	// GUPS's XOR updates are the in-repo example).
	lastSeq  uint64
	lastResp []byte

	retries uint64 // total re-sends across all Calls
}

// Connect binds a client core to a server core with the given handler.
func Connect(m *hw.Machine, clientCore, serverCore, slots int, h Handler) *Endpoint {
	return &Endpoint{
		m: m, client: clientCore, server: serverCore,
		req:     NewChannel(m, clientCore, serverCore, slots),
		resp:    NewChannel(m, serverCore, clientCore, slots),
		handler: h,

		MaxRetries:    DefaultMaxRetries,
		TimeoutCycles: DefaultTimeoutCycles,
		nextSeq:       1,
	}
}

// ServerCore returns the core the handler runs on.
func (e *Endpoint) ServerCore() *hw.Core { return e.m.Cores[e.server] }

// ClientCore returns the calling core.
func (e *Endpoint) ClientCore() *hw.Core { return e.m.Cores[e.client] }

// Retries returns the total number of request re-sends this endpoint has
// performed (0 on a loss-free channel).
func (e *Endpoint) Retries() uint64 { return e.retries }

// ChannelStats returns snapshots of the request and response channel
// counters, exposing drop/delay accounting to callers.
func (e *Endpoint) ChannelStats() (req, resp Stats) { return e.req.Stats(), e.resp.Stats() }

// Pending returns the frames sitting unconsumed in either ring. A drained
// endpoint reports zero: Call either completes a round trip (consuming the
// response and any stale retries) or times out with nothing queued.
func (e *Endpoint) Pending() int { return e.req.Len() + e.resp.Len() }

// backoff returns the busy-wait charge for a timed-out try: exponential in
// the retry count, capped at MaxBackoffShift doublings.
func (e *Endpoint) backoff(try int) uint64 {
	shift := uint(try)
	if shift > MaxBackoffShift {
		shift = MaxBackoffShift
	}
	return e.TimeoutCycles << shift
}

// Call performs one RPC round trip and returns the response. The client
// core's cycle delta across Call is the client-perceived latency the paper
// plots in Figure 7.
//
// Call is at-most-once under message loss: the request carries a sequence
// number, a lost request or response makes the client time out (charging
// the busy-wait, doubling each retry up to MaxBackoffShift) and re-send,
// and the server's duplicate cache ensures a re-executed round trip never
// runs the handler twice for the same sequence number. The unit of that
// guarantee is the request frame, whatever it carries: a frame holding a
// run of commands (the cluster's workers send those) is handled once as a
// whole, and a retry of it is answered with the whole cached response.
// After MaxRetries lost round trips Call returns ErrTimeout.
//
// Either frame may be of any size: one the ring cannot hold crosses in
// ring-sized bursts. The request is copied into the ring, so the caller may
// reuse it as soon as Call returns. The response is the caller's own: one
// allocation of exactly its size, which no later call — a retry served from
// the duplicate cache included — reads or writes.
func (e *Endpoint) Call(request []byte) ([]byte, error) { return e.CallBudget(nil, request, 0) }

// CallBudget is Call under a cycle budget: budget == 0 is plain Call;
// otherwise the retry loop is capped so the call never burns the client
// core past the caller's remaining allowance — each timeout's backoff is
// clamped to the budget still unspent, and once the budget is dry the call
// stops retrying and returns a *BudgetError instead of riding out the full
// retry ladder. The guarantee callers leaning on deadlines get: cycles
// charged to the client core by backoff never exceed the budget.
//
// The response is appended behind dst straight from the ring slots, as append
// does (a nil dst: Call's owned response); what dst holds is never touched,
// and a frame of an earlier try leaves nothing behind.
func (e *Endpoint) CallBudget(dst, request []byte, budget uint64) ([]byte, error) {
	resp, turn, err := e.Post(dst, request, budget)
	e.m.Cores[e.client].AddCycles(turn)
	return resp, err
}

// CallBulk is Call. It stays because the benchmark module (bench/micro.go)
// prices a large response through it.
func (e *Endpoint) CallBulk(request []byte) ([]byte, error) { return e.Call(request) }

// Post is CallBudget split in two on the simulated clock. The exchange is
// complete when Post returns — the handler ran, at most once, and the
// response is behind dst — but the client core is charged only its own line
// transfers. The turn comes back uncharged: the cycles the server spent
// receiving, working and answering, and every lost try's backoff. A caller
// with several calls out waits for the latest of them, not their sum; Call
// and CallBudget wait each out at once. Under a budget, lines and turn
// together pass it by no more than the last try's own transfers.
func (e *Endpoint) Post(dst, request []byte, budget uint64) (resp []byte, turn uint64, err error) {
	// The one round-trip loop: move the request across, let the server
	// handle it (or answer a duplicate from its cache), move the response
	// back behind dst, add the server's cycles to the turn, and on loss back
	// off and go again — under budget when there is one.
	client := e.m.Cores[e.client]
	server := e.m.Cores[e.server]
	start := client.Cycles()
	seq := e.nextSeq
	e.nextSeq++
	for try := 0; try <= e.MaxRetries; try++ {
		if budget != 0 && client.Cycles()-start+turn >= budget {
			return nil, turn, &BudgetError{Seq: seq, Budget: budget}
		}
		if try > 0 {
			e.retries++
			e.m.Observer().URPCRetry(e.client, seq, uint64(try))
		}
		before := server.Cycles()
		req, ok := e.req.transfer(seq, request, e.req.frame[:0])
		if ok {
			if cap(req) <= maxKeptFrame {
				e.req.frame = req
			}
			if seq != e.lastSeq { // else a duplicate of an executed request
				e.lastSeq, e.lastResp = seq, e.handler(req)
			}
			resp, ok = e.resp.transfer(seq, e.lastResp, dst)
		}
		// The server's turn: it receives, works and answers.
		turn += server.Cycles() - before
		if ok {
			return resp, turn, nil
		}
		// Something was lost: time out and retry, backing off exponentially —
		// but a budgeted call never sleeps past its remaining allowance.
		wait := e.backoff(try)
		if budget != 0 {
			spent := client.Cycles() - start + turn
			if spent >= budget {
				return nil, turn, &BudgetError{Seq: seq, Budget: budget}
			}
			if rem := budget - spent; wait > rem {
				wait = rem
			}
		}
		turn += wait
	}
	return nil, turn, &TimeoutError{Seq: seq, Retries: e.MaxRetries}
}

// CallLatency runs one call and returns the client-perceived latency in
// cycles.
func (e *Endpoint) CallLatency(request []byte) (uint64, error) {
	before := e.m.Cores[e.client].Cycles()
	if _, err := e.Call(request); err != nil {
		return 0, err
	}
	return e.m.Cores[e.client].Cycles() - before, nil
}
