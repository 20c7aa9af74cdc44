package server

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/redis"
)

var (
	busyReply = redis.EncodeBusy("server busy: shard queue full, retry")
	okReply   = redis.EncodeSimple("OK")
)

// ConnBufSize is a connection's read buffer and its write buffer. A fill is
// one read into the first, so it is sized to hold a pipeline: the default
// PipelineDepth (32) of 1 KiB SETs is ≈ 34 KB. The fill's arguments are cut
// from one arena sized from what the read brought in, not from this buffer.
// The writer flushes when the second fills or no fill is queued, so it holds a
// fill's replies for one write: a serve-mixed fill's average 33.6 KB. The
// price is 128 KiB per connection, and the spare fill it keeps: a reply chunk
// of at most 64 KiB (cluster's maxKeptWire) and a slab of at most
// PipelineDepth requests.
const ConnBufSize = 64 << 10

// fill is what the reader made of one buffer fill: its commands in arrival
// order, in one slab (reqs); those of them bound for the backend (bound); and
// the batch of them the backend took, its Reqs empty when it took none, whose
// Out chunk their replies are rendered into first. A fill is the connection's,
// reused fill after fill: once the writer has written it — the backend let go
// of its batch at the last Answered — the writer clears reqs and bound, so
// they pin nothing, and hands it back to the reader, Out and the slabs'
// capacity kept. Only the arena the arguments are cut from is made per fill,
// so whoever keeps an argument keeps it whole.
type fill struct {
	reqs  []Request
	bound []*Request
	batch Batch
}

// serveConn runs one connection, a buffer fill at a time. This goroutine
// parses every command the fill holds whole, up to what the pipeline depth
// leaves room for, and hands the ones that need simulated state to the
// backend as one batch; a companion writer goroutine waits for each batch
// once and writes the fill's replies back in arrival order, flushing when
// the pipeline goes idle. The two overlap — the next fill is parsed and
// queued while this one's batch runs — which is what keeps a pipeline of
// large commands, several fills long, streaming. Neither goroutine ever
// touches simulated state: that is the backend workers' monopoly.
func (s *Server) serveConn(id uint64, nc net.Conn) {
	defer s.connWG.Done()
	br := bufio.NewReaderSize(nc, ConnBufSize)
	bw := bufio.NewWriterSize(nc, ConnBufSize)
	depth := s.cfg.PipelineDepth
	// inflight counts the commands read and not yet answered. The reader
	// never lets it pass depth — it waits on room, which the writer pokes
	// after every fill — so fills, one command at least each, never blocks.
	// free takes a written fill back to the reader, which makes a fill only
	// when none is there. It keeps one: a closed-loop client reuses no more,
	// and a streaming one that ran up depth fills leaves one pinned, not depth.
	fills, free := make(chan *fill, depth), make(chan *fill, 1)
	room := make(chan struct{}, 1)
	var inflight atomic.Int64

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var werr error
		for f := range fills {
			answered := 0 // of the batch's requests
			for i := range f.reqs {
				r := &f.reqs[i]
				if answered < len(f.batch.Reqs) && r == f.batch.Reqs[answered] {
					// Replies go out as the backend answers, not when the
					// whole batch is done: the client gets to work on them
					// while the rest still runs.
					answered++
					f.batch.Wait(answered)
				}
				// Commit or roll back the tenant quota charge now that the
				// outcome is known (registry state only — never simulated).
				r.charge.Settle(r.resp)
				if werr == nil { // else keep draining so the reader never wedges
					_, werr = bw.Write(r.resp)
				}
			}
			n := len(f.reqs)
			clear(f.reqs)
			clear(f.bound)
			f.reqs, f.bound, f.batch.Reqs = f.reqs[:0], f.bound[:0], nil
			select {
			case free <- f: // before room and the flush: the reader's next fill finds it
			default:
			}
			inflight.Add(-int64(n))
			select {
			case room <- struct{}{}:
			default:
			}
			if werr == nil && len(fills) == 0 {
				werr = bw.Flush()
			}
		}
	}()

	c := connReader{s: s, ct: newConnTenant(s.cfg.Tenants), deadline: s.cfg.DeadlineCycles}
	var commands uint64
	for open := true; open; {
		// A full pipeline blocks here (never in a worker) until the writer
		// catches up — TCP flow control does the rest.
		left := depth - int(inflight.Load())
		for ; left <= 0; left = depth - int(inflight.Load()) {
			<-room
		}
		// The fill's arguments, tenant keys included, are cut from one arena,
		// made for this fill: whoever keeps an argument keeps it whole.
		var arena redis.Arena
		args, err := arena.ReadCommand(br)
		// Taken once a command is in: the writer hands the fill that answered
		// the last back before the client sees its replies.
		var f *fill
		select {
		case f = <-free:
		default:
			f = &fill{}
		}
		for err == nil {
			if s.faults.Fire(fault.SrvConnStall) {
				time.Sleep(500 * time.Microsecond)
			}
			if s.faults.Fire(fault.SrvConnDrop) {
				nc.Close() // mid-command partition: no reply, no goodbye
				open = false
				break
			}
			commands++
			if f.reqs = append(f.reqs, c.request(args, &arena)); f.reqs[len(f.reqs)-1].Cmd.Op == redis.OpQuit {
				open = false
				break
			}
			if len(f.reqs) == left {
				break
			}
			// Behind the command the fill was read for: whatever else it
			// holds whole. The rest waits for the next fill.
			var ok bool
			if args, ok = arena.ReadBufferedCommand(br); !ok {
				break
			}
		}
		if err != nil {
			if errors.Is(err, redis.ErrProtocol) {
				f.reqs = append(f.reqs, Request{resp: redis.EncodeError("protocol error: " + err.Error())})
			}
			open = false // clean close, truncation, or drain deadline
		}
		if len(f.reqs) == 0 {
			break // the connection ended between commands
		}
		// The fill's requests are one slab, shared by this goroutine, the
		// writer and the backend's workers; bound points into it.
		for i := range f.reqs {
			if f.reqs[i].resp == nil {
				f.bound = append(f.bound, &f.reqs[i])
			}
		}
		if len(f.bound) > 0 {
			f.batch.init(f.bound)
			took := s.backend.SubmitBatch(id, &f.batch)
			// Backpressure: what the saturated backend did not take fails
			// fast with an error reply instead of buffering without bound.
			s.ctr.Busy.Add(uint64(len(f.bound) - took))
			for _, r := range f.bound[took:] {
				r.resp = busyReply
			}
			if took == 0 {
				f.batch.Reqs = nil
			}
		}
		inflight.Add(int64(len(f.reqs)))
		s.ctr.Pipeline.Observe(uint64(len(f.reqs)))
		fills <- f
	}
	close(fills)
	writerWG.Wait()
	s.dropConn(nc)
	s.obs.ConnClosed(id, commands)
}

// connReader is a connection's own state: what the commands it answers
// itself set, and what is stamped onto every request bound for the backend.
type connReader struct {
	s        *Server
	ct       *connTenant
	readonly bool // READONLY/READWRITE toggle
	// deadline is the connection's budget in cycles: the server-wide default
	// until the client overrides it with DEADLINE.
	deadline uint64
}

// request turns one parsed command into a request: already answered (resp
// set) when the connection answers it itself — a refusal, its own commands,
// a tenant denial — and stamped for the backend otherwise. Tenant admission
// runs here, per command, in arrival order.
func (c *connReader) request(args []string, arena *redis.Arena) Request {
	// The one place a command's name is read: everything downstream
	// dispatches on the resolved table row.
	cmd := redis.Lookup(args)
	r := Request{Args: args, Cmd: cmd}
	switch cmd.By {
	case redis.ByNobody:
		// Unknown command or wrong arity: refused here, once, before
		// admission and routing.
		r.resp = cmd.Refusal(args)
	case redis.ByConn:
		// Connection state only, so these never need a worker.
		r.resp = okReply
		switch cmd.Op {
		case redis.OpReadonly, redis.OpReadwrite:
			// Per-connection follower-read opt-in.
			c.readonly = cmd.Op == redis.OpReadonly
		case redis.OpDeadline:
			// Deadline override in milliseconds, 0 clears it; converted
			// to a cycle budget at the machine's clock so every
			// downstream layer spends one currency.
			ms, perr := strconv.ParseUint(args[1], 10, 32)
			if perr != nil {
				r.resp = redis.EncodeError("DEADLINE wants milliseconds: " + args[1])
			} else {
				c.deadline = ms * c.s.cfg.CyclesPerMilli
			}
		case redis.OpAuth:
			if c.ct == nil {
				r.resp = cmd.Refusal(args) // no registry: AUTH is unknown
			} else {
				r.resp = c.ct.auth(args)
			}
		}
	default:
		if c.ct != nil {
			// Tenant admission may answer here too: a capability denial
			// or a quota rejection. Nothing then reaches the backend.
			r.resp, r.charge = c.ct.admit(cmd, args, arena)
		}
		r.Readonly, r.Deadline = c.readonly, c.deadline
	}
	return r
}
