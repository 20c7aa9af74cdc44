package stats

import "sync/atomic"

// Serving-layer counters. The RESP front-end (internal/server) is the one
// component whose concurrency is real rather than simulated — many
// connection goroutines feeding the backend's workers — so its counters are
// atomic like the rest of the sink and exported through the Snapshot path.

// ShardCounters is one worker shard's activity; the worker holds its row
// (ServerCounters.Shards.Row) and counts into it.
type ShardCounters struct {
	Conns    atomic.Uint64
	Commands atomic.Uint64
	Busy     atomic.Uint64 // requests rejected because the shard's queue was full
	QueueMax atomic.Uint64 // high-water mark, not a count (StoreMax)
}

// ServerCounters is the sink's serving-layer block (Sink.Server). The
// connection loop and the backend's workers count into it; an accept and a
// teardown also go to the trace ring, below.
type ServerCounters struct {
	ConnsAccepted atomic.Uint64
	ConnsClosed   atomic.Uint64
	Commands      atomic.Uint64
	Busy          atomic.Uint64

	Pipeline   Hist // commands one buffer fill of a connection held, per fill
	QueueDepth Hist // shard queue depth, in commands, sampled at enqueue
	LatencyNs  Hist // per-command wall latency (its batch's enqueue → replies ready)

	Shards table[ShardCounters]
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
