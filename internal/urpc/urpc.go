// Package urpc implements user-level RPC over shared-memory channels in the
// style of Barrelfish UMP / FastForward (paper §5.1, Figure 7): circular
// buffers of cache-line-sized messages polled by sender and receiver. Each
// line moved between cores costs a cache-line transfer, more when the cores
// sit on different sockets (URPC L vs URPC X in the figure).
//
// Calls execute the server handler inline but attribute every cycle to the
// correct simulated core: the client core is charged for its sends,
// receives, and the busy-wait while the server works; the server core is
// charged for its receives, dispatch, handler work, and sends. The paper's
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
	"encoding/binary"
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

// Stats counts channel activity.
type Stats struct {
	Sends  uint64
	Recvs  uint64
	Lines  uint64
	Drops  uint64 // messages paid for but lost to fault injection
	Delays uint64 // messages stalled by fault injection
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
	// frame until it receives the next one (see recvKept).
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

// Send enqueues one message, charging the sending core one cache-line
// transfer per line. A payload longer than one line is framed across that
// many ring slots; Send fails when the frame does not fit in the ring's
// free slots (the caller polls). An armed fault.URPCDrop point loses the
// whole frame after the sender paid for it — exactly how a lossy
// interconnect looks from the sending side.
func (c *Channel) Send(payload []byte) error { return c.sendSeq(0, payload) }

func (c *Channel) sendSeq(seq uint64, payload []byte) error {
	lines := Lines(len(payload))
	if c.count+int(lines) > c.capacity {
		return fmt.Errorf("urpc: channel full (%d of %d slots free, frame needs %d)",
			c.capacity-c.count, c.capacity, lines)
	}
	c.m.Cores[c.tx].AddCycles(lines * c.perLine)
	if c.m.Faults.Fire(fault.URPCDelay) {
		c.m.Cores[c.tx].AddCycles(DelayCycles)
		c.stats.Delays++
	}
	c.stats.Sends++
	c.stats.Lines += lines
	if c.m.Faults.Fire(fault.URPCDrop) {
		c.stats.Drops++
		return nil
	}
	// Fragment into cache-line slots. The final fragment carries the last
	// flag the receiver reassembles on; an empty payload is one empty,
	// last fragment (the 64-bit-key-in-header case). The payload is copied
	// into the slots, so the caller may reuse it as soon as Send returns.
	for i := uint64(0); i < lines; i++ {
		slot := &c.ring[(c.head+c.count)%c.capacity]
		slot.seq, slot.last = seq, i == lines-1
		slot.n = uint8(copy(slot.data[:], payload))
		payload = payload[slot.n:]
		c.count++
	}
	c.frames++
	return nil
}

// Recv dequeues the oldest message, reassembling its fragments and charging
// the receiving core per line plus one dispatch. Fails when the ring holds
// no complete frame. The message is the caller's own.
func (c *Channel) Recv() ([]byte, error) {
	_, payload, err := c.recvSeq(nil)
	return payload, err
}

// recvSeq is Recv with the frame's sequence number, appending the frame
// behind dst as append does. A nil dst gets one allocation of exactly the
// frame's size that nothing else refers to.
func (c *Channel) recvSeq(dst []byte) (uint64, []byte, error) {
	if c.frames == 0 {
		return 0, nil, fmt.Errorf("urpc: channel empty")
	}
	size, lines := 0, uint64(0)
	for i := c.head; ; i = (i + 1) % c.capacity {
		size += int(c.ring[i].n)
		lines++
		if c.ring[i].last {
			break
		}
	}
	payload := grow(dst, size)
	seq := c.ring[c.head].seq
	for i := uint64(0); i < lines; i++ {
		slot := &c.ring[c.head]
		payload = append(payload, slot.data[:slot.n]...)
		c.head = (c.head + 1) % c.capacity
		c.count--
	}
	c.frames--
	c.m.Cores[c.rx].AddCycles(lines*c.perLine + DispatchCycles)
	c.stats.Recvs++
	return seq, payload, nil
}

// recvKept is recvSeq into the channel's reassembly buffer: the frame is valid
// until the next recvKept on this channel.
func (c *Channel) recvKept() (uint64, []byte, error) {
	seq, frame, err := c.recvSeq(c.frame[:0])
	if cap(frame) <= maxKeptFrame {
		c.frame = frame
	}
	return seq, frame, err
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

	bulk []byte // server: the frame streamResponse is sending, reused

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
// The request is copied into the ring, so the caller may reuse it as soon
// as Call returns. The response is the caller's own: one allocation of
// exactly its size, which no later call — a retry served from the
// duplicate cache included — reads or writes. A response too long for the
// response ring is streamed as CallBulk streams every response.
func (e *Endpoint) Call(request []byte) ([]byte, error) { return e.exchange(nil, request, 0, false) }

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
	return e.exchange(dst, request, budget, false)
}

// CallBulk is Call with the response always streamed in bounded multi-slot
// chunks — a length header, then data chunks, the client consuming each as
// it lands so the ring never overflows regardless of payload size — which
// is what a bulk transfer costs in the model. Loss anywhere —
// request, header, any chunk — surfaces as an incomplete reassembly and
// retries the whole call; the duplicate cache re-streams the cached
// response.
func (e *Endpoint) CallBulk(request []byte) ([]byte, error) { return e.exchange(nil, request, 0, true) }

// exchange is the one round-trip loop behind Call, CallBudget and CallBulk:
// send, let the server receive and handle (or answer a duplicate from its
// cache), mirror the server's cycles into the client's busy-wait, move the
// response back, and on loss back off and go again — under budget when
// there is one. The response lands behind dst.
func (e *Endpoint) exchange(dst, request []byte, budget uint64, stream bool) ([]byte, error) {
	client := e.m.Cores[e.client]
	server := e.m.Cores[e.server]
	start := client.Cycles()
	seq := e.nextSeq
	e.nextSeq++
	for try := 0; try <= e.MaxRetries; try++ {
		if budget != 0 && client.Cycles()-start >= budget {
			return nil, &BudgetError{Seq: seq, Budget: budget}
		}
		if try > 0 {
			e.retries++
			e.m.Observer().URPCRetry(e.client, seq, uint64(try))
		}
		if err := e.req.sendSeq(seq, request); err != nil {
			return nil, err
		}
		// Server side: receive, dispatch, handle. An empty request ring
		// means the send was dropped in flight.
		before := server.Cycles()
		rseq, req, err := e.req.recvKept()
		served := err == nil
		var response []byte
		if served {
			if rseq != 0 && rseq == e.lastSeq {
				response = e.lastResp // duplicate of an executed request
			} else {
				response = e.handler(req)
				if rseq != 0 {
					e.lastSeq, e.lastResp = rseq, response
				}
			}
		}
		// The client busy-waits while the server works.
		client.AddCycles(server.Cycles() - before)
		if served {
			if got, ok := e.respond(dst, rseq, response, stream); ok {
				return got, nil
			}
		}
		// Nothing (or only stale traffic) arrived: time out and retry,
		// backing off exponentially — but a budgeted call never sleeps
		// past its remaining allowance.
		wait := e.backoff(try)
		if budget != 0 {
			spent := client.Cycles() - start
			if spent >= budget {
				return nil, &BudgetError{Seq: seq, Budget: budget}
			}
			if rem := budget - spent; wait > rem {
				wait = rem
			}
		}
		client.AddCycles(wait)
	}
	return nil, &TimeoutError{Seq: seq, Retries: e.MaxRetries}
}

// respond is the response leg of one try, reassembled behind dst: a single
// frame when the response fits the (drained) response ring and the caller
// did not ask for a stream, the header and chunk stream otherwise. It
// reports whether the response arrived whole; stale frames of earlier tries
// are discarded on the way, each overwritten by the next frame.
func (e *Endpoint) respond(dst []byte, seq uint64, response []byte, stream bool) ([]byte, bool) {
	if stream || Lines(len(response)) > uint64(e.resp.capacity) {
		return e.streamResponse(dst, seq, response)
	}
	client := e.m.Cores[e.client]
	server := e.m.Cores[e.server]
	before := server.Cycles()
	if err := e.resp.sendSeq(seq, response); err != nil {
		return nil, false
	}
	// The client busy-waits through the server's send, then drains.
	client.AddCycles(server.Cycles() - before)
	for e.resp.Len() > 0 {
		sseq, resp, err := e.resp.recvSeq(dst)
		if err != nil {
			break
		}
		if sseq == seq {
			return resp, true
		}
	}
	return nil, false
}

// Bulk responses are streamed as kind-tagged frames so the client can tell a
// length header from a data chunk even when loss reorders what arrives: one
// header frame (total response length) followed by data chunks, each small
// enough to fit the response ring, with the client draining between sends.
const (
	bulkHeader byte = 0
	bulkData   byte = 1
)

// bulkChunkBytes is the largest data-chunk payload one streamed frame may
// carry: the whole ring minus one slot of headroom, minus the kind tag.
func (e *Endpoint) bulkChunkBytes() int {
	return (e.resp.capacity-1)*PayloadPerLine - 1
}

// streamResponse moves one bulk response across the response ring: the
// server sends the header then each chunk, the client draining after every
// send (both sides run inline here, each charged on its own core). It
// reports whether the complete response was reassembled behind dst; any
// dropped frame makes the caller retry the whole exchange.
func (e *Endpoint) streamResponse(dst []byte, seq uint64, response []byte) ([]byte, bool) {
	client := e.m.Cores[e.client]
	server := e.m.Cores[e.server]
	chunk := e.bulkChunkBytes()

	got := dst
	var want uint64
	sawHeader := false
	// Every frame is built in e.bulk: sendSeq copies it into the ring, and
	// the client has drained it by the time the next one is built.
	e.bulk = binary.LittleEndian.AppendUint64(append(e.bulk[:0], bulkHeader), uint64(len(response)))
	for off := 0; ; {
		before := server.Cycles()
		if err := e.resp.sendSeq(seq, e.bulk); err != nil {
			return nil, false
		}
		// The client busy-waits through the server's send, then drains.
		client.AddCycles(server.Cycles() - before)
		for e.resp.Len() > 0 {
			sseq, frag, err := e.resp.recvKept()
			if err != nil {
				break
			}
			if sseq != seq || len(frag) == 0 {
				continue // stale traffic from an earlier exchange
			}
			switch frag[0] {
			case bulkHeader:
				if len(frag) == 9 {
					want = binary.LittleEndian.Uint64(frag[1:])
					sawHeader = true
					got = grow(dst, int(want))
				}
			case bulkData:
				got = append(got, frag[1:]...)
			}
		}
		if off >= len(response) {
			break
		}
		end := min(off+chunk, len(response))
		e.bulk = append(append(e.bulk[:0], bulkData), response[off:end]...)
		off = end
	}
	if !sawHeader || uint64(len(got)-len(dst)) != want {
		return nil, false
	}
	return got, true
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
