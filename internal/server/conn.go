package server

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"sync"
	"time"

	"spacejmp/internal/fault"
	"spacejmp/internal/redis"
)

var busyReply = redis.EncodeBusy("server busy: shard queue full, retry")

// serveConn runs one connection: this goroutine reads and parses commands
// and submits them to the backend; a companion writer goroutine sends
// replies back in arrival order, flushing only when the pipeline goes idle
// so pipelined clients get batched writes. Neither goroutine ever touches
// simulated state — that is the backend workers' monopoly.
func (s *Server) serveConn(id uint64, nc net.Conn) {
	defer s.connWG.Done()
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	replies := make(chan *Request, s.cfg.PipelineDepth)

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var werr error
		for r := range replies {
			resp := r.Wait()
			if r.settle != nil {
				// Commit or roll back the tenant quota charge now that the
				// outcome is known (registry state only — never simulated).
				r.settle(resp)
			}
			if werr != nil {
				continue // keep draining so the reader never wedges
			}
			if _, err := bw.Write(resp); err != nil {
				werr = err
				continue
			}
			if len(replies) == 0 {
				werr = bw.Flush()
			}
		}
		if werr == nil {
			bw.Flush()
		}
	}()

	ct := newConnTenant(s.cfg.Tenants)
	var commands uint64
	var readonly bool // READONLY/READWRITE toggle, stamped onto each request
	// Per-connection deadline budget, stamped onto each request in cycles:
	// the server-wide default until the client overrides it with DEADLINE.
	deadline := s.cfg.DeadlineCycles
read:
	for {
		if s.faults.Fire(fault.SrvConnStall) {
			time.Sleep(500 * time.Microsecond)
		}
		args, err := redis.ReadCommand(br)
		if err != nil {
			if errors.Is(err, redis.ErrProtocol) {
				replies <- inlineReply(redis.EncodeError("protocol error: " + err.Error()))
			}
			break // clean close, truncation, or drain deadline
		}
		if s.faults.Fire(fault.SrvConnDrop) {
			nc.Close() // mid-command partition: no reply, no goodbye
			break
		}
		commands++
		// The one place a command's name is read: everything downstream
		// dispatches on the resolved table row.
		cmd := redis.Lookup(args)
		var settle func([]byte)
		var inline []byte
		switch cmd.By {
		case redis.ByNobody:
			// Unknown command or wrong arity: refused here, once, before
			// admission and routing.
			inline = cmd.Refusal(args)
		case redis.ByConn:
			// Reader-goroutine state only, so these never need a worker.
			inline = redis.EncodeSimple("OK")
			switch cmd.Op {
			case redis.OpQuit:
				replies <- inlineReply(inline)
				break read
			case redis.OpReadonly, redis.OpReadwrite:
				// Per-connection follower-read opt-in.
				readonly = cmd.Op == redis.OpReadonly
			case redis.OpDeadline:
				// Deadline override in milliseconds, 0 clears it; converted
				// to a cycle budget at the machine's clock so every
				// downstream layer spends one currency.
				ms, perr := strconv.ParseUint(args[1], 10, 32)
				if perr != nil {
					inline = redis.EncodeError("DEADLINE wants milliseconds: " + args[1])
				} else {
					deadline = ms * s.cfg.CyclesPerMilli
				}
			case redis.OpAuth:
				if ct == nil {
					inline = cmd.Refusal(args) // no registry: AUTH is unknown
				} else {
					inline = ct.auth(args)
				}
			}
		default:
			if ct != nil {
				// Tenant admission may answer inline too: a capability
				// denial or a quota rejection. Nothing then reaches the
				// backend.
				inline, settle = ct.admit(cmd, args)
			}
		}
		var r *Request
		if inline != nil {
			r = inlineReply(inline)
		} else {
			r = newRequest(cmd, args)
			r.Readonly = readonly
			r.Deadline = deadline
			r.settle = settle
			if !s.backend.Submit(id, r) {
				// Backpressure: the backend is saturated. Fail fast with an
				// error reply instead of buffering without bound.
				s.obs.ServerBusy()
				r.resp = busyReply
				r.done = closedDone
			}
		}
		s.obs.ServerPipeline(len(replies) + 1)
		// A full pipeline blocks here (never in a worker) until the
		// writer catches up — TCP flow control does the rest.
		replies <- r
	}
	close(replies)
	writerWG.Wait()
	s.dropConn(nc)
	s.obs.ConnClosed(id, commands)
}
