package redis

import (
	"errors"
	"slices"

	"spacejmp/internal/mspace"
)

// Execute resolves one already-parsed command against the command table
// and runs it on a client's store. Callers that already hold the resolved
// row (the router, via server.Request) call Run directly.
func Execute(c *Client, args []string) []byte {
	return Run(c, Lookup(args), args)
}

// Call is one resolved command to carry out — Cmd must be Lookup(Args), so
// arity is already checked — and, once RunAll returns, its reply.
type Call struct {
	Cmd   *Command
	Args  []string
	Reply []byte
}

// Run executes one resolved command against a client's store and renders
// the RESP reply: RunAll of a run of one.
func Run(c *Client, cmd *Command, args []string) []byte {
	run := [1]Call{{Cmd: cmd, Args: args}}
	RunAll(c, run[:], nil)
	return run[0].Reply
}

// RunAll carries out resolved commands on a client's store, in order, and
// leaves each one's RESP reply in its Call. It is the one place commands are
// carried out: the router's co-resident fast path, the shard node handlers
// and the cluster's own agents (replaying a delta log, copying a slot) all
// end here, so a command behaves identically whether it was served locally
// over a VAS switch or remotely over urpc, alone or as one of a run.
//
// Adjacent data commands that need the same VAS — GETs and MGETs the read
// one, SETs and DELs the write one — run under one switch pair and one
// acquisition of the segment's lock, the parse work of all of them charged up
// front: the two switches are the fixed cost a run amortizes (the paper's
// Figure 7 point). Each still answers for itself, so a full heap fails the
// one SET that met it; a switch that fails is every member's reply.
//
// The replies are rendered into dst's free capacity, a value straight from
// simulated memory, each one capped at its own length; dst is a chunk of
// replies and what came before its free capacity is never touched. A reply
// that does not fit starts a new chunk, carrying along only what of itself
// was rendered, and the replies behind it go there; RunAll returns the chunk
// it rendered its last reply into, holding past what dst held only the
// replies that went there: a switch that fails renders its members' error
// replies again from the chunk they began in. A reply is never copied once
// rendered, so a reader may take each one while the chunk fills behind it.
//
// A nil client serves only the store-less commands (PING, ECHO); commands
// that need a store answer with an error reply. Commands another layer
// answers are unknown here. Whether the sender may issue a command at all is
// the caller's business: the router refuses ByNode rows arriving from a
// connection before they get this far.
func RunAll(c *Client, run []Call, dst []byte) []byte {
	for i := 0; i < len(run); {
		if write := run[i].Cmd.Write; run[i].Cmd.By == ByStore && c != nil {
			j, parse, h := i, 0, c.readH
			if write {
				h = c.writeH
			}
			for ; j < len(run) && run[j].Cmd.By == ByStore && run[j].Cmd.Write == write; j++ {
				parse += len(run[j].Cmd.Keys(run[j].Args))
			}
			members, start := run[i:j], dst
			err := c.in(h, parse, func() error {
				more := parse // values still to come, for a chunk that has to grow
				for k := range members {
					m := &members[k]
					more -= len(m.Cmd.Keys(m.Args))
					dst, m.Reply = PlaceReply(dst, c.apply(dst[len(dst):], m.Cmd, m.Args, more))
				}
				return nil
			})
			if err != nil {
				dst = start
				for k := range members {
					dst, members[k].Reply = PlaceReply(dst, appendError(dst[len(dst):], err.Error()))
				}
			}
			i = j
			continue
		}
		dst, run[i].Reply = PlaceReply(dst, runOther(dst[len(dst):], c, run[i].Cmd, run[i].Args))
		i++
	}
	return dst
}

// PlaceReply takes back a reply that was rendered by appending to the free
// capacity of chunk, chunk[len(chunk):], and became out. It returns the chunk
// the next reply goes to — chunk holding the reply too, or, if the reply
// outgrew it, the new chunk it was rendered into — and the reply, capped at
// its own length so that appending to it cannot reach the next.
func PlaceReply(chunk, out []byte) (next, reply []byte) {
	reply = out[:len(out):len(out)]
	if cap(out) == cap(chunk)-len(chunk) { // append never moves a slice within its capacity
		return chunk[:len(chunk)+len(out)], reply
	}
	return out, reply
}

// apply carries out one data command for a thread already switched into the
// VAS it needs, and appends its reply to dst; more is how many values the
// replies behind it will carry, which a dst that has to grow makes room for.
func (c *Client) apply(dst []byte, cmd *Command, args []string, more int) []byte {
	var err error
	switch cmd.Op {
	case OpGet, OpMGet:
		var out []byte
		if out, err = c.store.AppendReply(dst, args[1:], cmd.Op == OpMGet, more); err == nil {
			return out
		}
	case OpSet:
		if err = c.set(c.staged(args[1], args[2])); err == nil {
			return appendFixed(dst, "+OK\r\n", more)
		}
		if errors.Is(err, mspace.ErrNoSpace) {
			return appendError(dst, "OOM store segment full")
		}
	case OpDel:
		var found bool
		if found, err = c.store.Del([]byte(args[1])); err == nil {
			if found {
				return appendFixed(dst, ":1\r\n", more)
			}
			return appendFixed(dst, ":0\r\n", more)
		}
	default:
		return append(dst, cmd.Refusal(args)...)
	}
	return appendError(dst, err.Error())
}

// appendFixed appends a reply of a few bytes, such as +OK, to dst; a dst
// that has to grow makes room for more replies like it.
func appendFixed(dst []byte, reply string, more int) []byte {
	if cap(dst)-len(dst) < len(reply) {
		dst = slices.Grow(dst, len(reply)*(1+more))
	}
	return append(dst, reply...)
}

// runOther is RunAll's arm for what is not a data command: the store-less
// ones, and the slot-copy commands, which take the switches they need
// themselves. It appends the reply to dst.
func runOther(dst []byte, c *Client, cmd *Command, args []string) []byte {
	if (cmd.By == ByStore || cmd.By == ByNode) && c == nil {
		return appendError(dst, "no store behind this handler")
	}
	switch cmd.Op {
	case OpPing:
		if len(args) == 2 {
			return appendBulk(dst, args[1])
		}
		return append(dst, "+PONG\r\n"...)
	case OpEcho:
		return appendBulk(dst, args[1])
	case OpClusterMigrate, OpClusterImport, OpClusterCleanup:
		return c.slotCommand(dst, cmd.Op, args)
	}
	return append(dst, cmd.Refusal(args)...)
}
