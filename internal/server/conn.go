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

var busyReply = redis.EncodeBusy("server busy: shard queue full, retry")

// fill is what the reader made of one buffer fill: every command it held, in
// arrival order, and the batch the backend took of them — nil when none
// needed a backend or it took none.
type fill struct {
	reqs  []*Request
	batch *Batch
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
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	depth := s.cfg.PipelineDepth
	// inflight counts the commands read and not yet answered. The reader
	// never lets it pass depth — it waits on room, which the writer pokes
	// after every fill — so fills, one command at least each, never blocks.
	fills := make(chan fill, depth)
	room := make(chan struct{}, 1)
	var inflight atomic.Int64

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var werr error
		for f := range fills {
			answered := 0 // of the batch's requests
			for _, r := range f.reqs {
				if f.batch != nil && answered < len(f.batch.Reqs) && r == f.batch.Reqs[answered] {
					// Replies go out as the backend answers, not when the
					// whole batch is done: the client gets to work on them
					// while the rest still runs.
					answered++
					f.batch.Wait(answered)
				}
				if r.settle != nil {
					// Commit or roll back the tenant quota charge now that the
					// outcome is known (registry state only — never simulated).
					r.settle(r.resp)
				}
				if werr == nil { // else keep draining so the reader never wedges
					_, werr = bw.Write(r.resp)
				}
			}
			inflight.Add(-int64(len(f.reqs)))
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
		free := depth - int(inflight.Load())
		for ; free <= 0; free = depth - int(inflight.Load()) {
			<-room
		}
		var reqs, bound []*Request // the fill's requests, and those of them bound for the backend
		for len(reqs) < free {
			var args []string
			if len(reqs) > 0 {
				// Behind the command the fill was read for: whatever else it
				// holds whole. The rest waits for the next fill.
				var ok bool
				if args, ok = redis.ReadBufferedCommand(br); !ok {
					break
				}
			} else if a, err := redis.ReadCommand(br); err == nil {
				args = a
			} else {
				if errors.Is(err, redis.ErrProtocol) {
					reqs = append(reqs, &Request{resp: redis.EncodeError("protocol error: " + err.Error())})
				}
				open = false // clean close, truncation, or drain deadline
				break
			}
			if s.faults.Fire(fault.SrvConnStall) {
				time.Sleep(500 * time.Microsecond)
			}
			if s.faults.Fire(fault.SrvConnDrop) {
				nc.Close() // mid-command partition: no reply, no goodbye
				open = false
				break
			}
			commands++
			r := c.request(args)
			reqs = append(reqs, r)
			if r.resp == nil {
				bound = append(bound, r)
			}
			if r.Cmd.Op == redis.OpQuit {
				open = false
				break
			}
		}
		if len(reqs) == 0 {
			break // the connection ended between commands
		}
		f := fill{reqs: reqs}
		if len(bound) > 0 {
			f.batch = NewBatch(bound)
			took := s.backend.SubmitBatch(id, f.batch)
			// Backpressure: what the saturated backend did not take fails
			// fast with an error reply instead of buffering without bound.
			s.ctr.Busy.Add(uint64(len(bound) - took))
			for _, r := range bound[took:] {
				r.resp = busyReply
			}
			if took == 0 {
				f.batch = nil
			}
		}
		s.ctr.Pipeline.Observe(uint64(inflight.Add(int64(len(reqs)))))
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
func (c *connReader) request(args []string) *Request {
	// The one place a command's name is read: everything downstream
	// dispatches on the resolved table row.
	cmd := redis.Lookup(args)
	r := &Request{Args: args, Cmd: cmd}
	switch cmd.By {
	case redis.ByNobody:
		// Unknown command or wrong arity: refused here, once, before
		// admission and routing.
		r.resp = cmd.Refusal(args)
	case redis.ByConn:
		// Connection state only, so these never need a worker.
		r.resp = redis.EncodeSimple("OK")
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
			r.resp, r.settle = c.ct.admit(cmd, args)
		}
		r.Readonly, r.Deadline = c.readonly, c.deadline
	}
	return r
}
