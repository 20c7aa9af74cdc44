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
	conns    atomic.Uint64
	commands atomic.Uint64
	busy     atomic.Uint64
	queueMax atomic.Uint64
}

// Conn records one connection assigned to this shard. Safe on nil.
func (c *ShardCounters) Conn() {
	if c != nil {
		c.conns.Add(1)
	}
}

// Command records one command executed by this shard. Safe on nil.
func (c *ShardCounters) Command() {
	if c != nil {
		c.commands.Add(1)
	}
}

// Busy records one request rejected because this shard's queue was full.
// Safe on nil.
func (c *ShardCounters) Busy() {
	if c != nil {
		c.busy.Add(1)
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
		cur := c.queueMax.Load()
		if v <= cur || c.queueMax.CompareAndSwap(cur, v) {
			return
		}
	}
}

// serverCounters is the sink's serving-layer block.
type serverCounters struct {
	connsAccepted atomic.Uint64
	connsClosed   atomic.Uint64
	commands      atomic.Uint64
	busy          atomic.Uint64

	pipeline  Hist // commands in flight on a connection when one completes
	queue     Hist // shard queue depth sampled at enqueue
	latencyNs Hist // per-command wall latency (enqueue → reply ready)

	shards atomic.Pointer[[]ShardCounters]
}

// InstallServerShards sizes the per-shard counter table and returns one
// *ShardCounters per shard for workers to hold. Returns nil on a nil sink
// (the nil pointers still record safely).
func (s *Sink) InstallServerShards(n int) []*ShardCounters {
	if s == nil {
		return make([]*ShardCounters, n)
	}
	table := make([]ShardCounters, n)
	s.server.shards.Store(&table)
	out := make([]*ShardCounters, n)
	for i := range table {
		out[i] = &table[i]
	}
	return out
}

// ConnAccepted records (and traces) one accepted connection.
func (s *Sink) ConnAccepted(conn, shard uint64) {
	if s == nil {
		return
	}
	s.server.connsAccepted.Add(1)
	s.Trace(Event{Kind: EvConnOpen, Core: -1, A: conn, B: shard})
}

// ConnClosed records (and traces) one connection teardown that served the
// given number of commands.
func (s *Sink) ConnClosed(conn, commands uint64) {
	if s == nil {
		return
	}
	s.server.connsClosed.Add(1)
	s.Trace(Event{Kind: EvConnClose, Core: -1, A: conn, B: commands})
}

// ServerCommand records one completed command with its wall latency.
func (s *Sink) ServerCommand(latNs uint64) {
	if s == nil {
		return
	}
	s.server.commands.Add(1)
	s.server.latencyNs.Observe(latNs)
}

// ServerBusy records one backpressure rejection.
func (s *Sink) ServerBusy() {
	if s != nil {
		s.server.busy.Add(1)
	}
}

// ServerBusyTotal returns the running count of backpressure rejections.
// Unlike a full Snapshot — which copies the cores' non-atomic cycle
// counters and so must wait for quiescence — this is a single atomic load,
// safe to poll while workers run.
func (s *Sink) ServerBusyTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.server.busy.Load()
}

// ServerPipeline records the pipeline depth observed on a connection.
func (s *Sink) ServerPipeline(d int) {
	if s != nil {
		s.server.pipeline.Observe(uint64(d))
	}
}

// ServerQueue records a shard queue depth observed at enqueue.
func (s *Sink) ServerQueue(d int) {
	if s != nil {
		s.server.queue.Observe(uint64(d))
	}
}
