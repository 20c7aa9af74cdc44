package stats

import "sync/atomic"

// Serving-layer counters. The RESP front-end (internal/server) is the one
// component whose concurrency is real rather than simulated — many
// connection goroutines feeding the backend's workers — so its counters
// follow the same contract as the rest of the sink: nil-safe, atomic, and
// exported through the Snapshot path.

// ShardCounters is one worker shard's activity. Shards hold a pointer to
// their slot and record through nil-safe methods, exactly as cores do with
// CoreCounters.
type ShardCounters struct {
	Conns    atomic.Uint64
	Commands atomic.Uint64
	Rejected atomic.Uint64 `snap:"Busy"` // the Busy method has the name
	QueueMax atomic.Uint64 // high-water mark, not a count
}

// Conn records one connection assigned to this shard. Safe on nil.
func (c *ShardCounters) Conn() {
	if c != nil {
		c.Conns.Add(1)
	}
}

// Command records one command executed by this shard. Safe on nil.
func (c *ShardCounters) Command() {
	if c != nil {
		c.Commands.Add(1)
	}
}

// Busy records one request rejected because this shard's queue was full.
// Safe on nil.
func (c *ShardCounters) Busy() {
	if c != nil {
		c.Rejected.Add(1)
	}
}

// QueueDepth records an observed queue depth, keeping the high-water mark.
// Safe on nil.
func (c *ShardCounters) QueueDepth(d int) {
	if c == nil {
		return
	}
	v := uint64(d)
	for {
		cur := c.QueueMax.Load()
		if v <= cur || c.QueueMax.CompareAndSwap(cur, v) {
			return
		}
	}
}

// serverCounters is the sink's serving-layer block.
type serverCounters struct {
	ConnsAccepted atomic.Uint64
	ConnsClosed   atomic.Uint64
	Commands      atomic.Uint64
	Busy          atomic.Uint64

	Pipeline   Hist // commands one buffer fill of a connection held, per fill
	QueueDepth Hist // shard queue depth, in commands, sampled at enqueue
	LatencyNs  Hist // per-command wall latency (its batch's enqueue → replies ready)

	Shards table[ShardCounters]
}

// InstallServerShards grows the per-shard counter table to at least n shards
// and returns one *ShardCounters per shard for workers to hold. On a nil sink
// the pointers are nil (and still record safely).
func (s *Sink) InstallServerShards(n int) []*ShardCounters {
	if s == nil {
		return make([]*ShardCounters, n)
	}
	return s.live.Server.Shards.atLeast(n)[:n:n]
}

// ConnAccepted records (and traces) one accepted connection.
func (s *Sink) ConnAccepted(conn, shard uint64) {
	if s == nil {
		return
	}
	s.live.Server.ConnsAccepted.Add(1)
	s.Trace(Event{Kind: EvConnOpen, Core: -1, A: conn, B: shard})
}

// ConnClosed records (and traces) one connection teardown that served the
// given number of commands.
func (s *Sink) ConnClosed(conn, commands uint64) {
	if s == nil {
		return
	}
	s.live.Server.ConnsClosed.Add(1)
	s.Trace(Event{Kind: EvConnClose, Core: -1, A: conn, B: commands})
}

// ServerCommand records one completed command with its wall latency.
func (s *Sink) ServerCommand(latNs uint64) {
	if s == nil {
		return
	}
	s.live.Server.Commands.Add(1)
	s.live.Server.LatencyNs.Observe(latNs)
}

// ServerBusy records one backpressure rejection.
func (s *Sink) ServerBusy() {
	if s != nil {
		s.live.Server.Busy.Add(1)
	}
}

// ServerPipeline records the commands one buffer fill of a connection held.
func (s *Sink) ServerPipeline(d int) {
	if s != nil {
		s.live.Server.Pipeline.Observe(uint64(d))
	}
}

// ServerQueue records a shard queue depth observed at enqueue.
func (s *Sink) ServerQueue(d int) {
	if s != nil {
		s.live.Server.QueueDepth.Observe(uint64(d))
	}
}
