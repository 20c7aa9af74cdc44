package redis

import (
	"errors"

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
	RunAll(c, run[:])
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
// A nil client serves only the store-less commands (PING, ECHO); commands
// that need a store answer with an error reply. Commands another layer
// answers are unknown here. Whether the sender may issue a command at all is
// the caller's business: the router refuses ByNode rows arriving from a
// connection before they get this far.
func RunAll(c *Client, run []Call) {
	for i := 0; i < len(run); {
		if write := run[i].Cmd.Write; run[i].Cmd.By == ByStore && c != nil {
			j, parse, h := i, 0, c.readH
			if write {
				h = c.writeH
			}
			for ; j < len(run) && run[j].Cmd.By == ByStore && run[j].Cmd.Write == write; j++ {
				parse += len(run[j].Cmd.Keys(run[j].Args))
			}
			members := run[i:j]
			err := c.in(h, parse, func() error {
				for k := range members {
					members[k].Reply = c.apply(members[k].Cmd, members[k].Args)
				}
				return nil
			})
			for k := range members {
				if err != nil {
					members[k].Reply = EncodeError(err.Error())
				}
			}
			i = j
			continue
		}
		run[i].Reply = runOther(c, run[i].Cmd, run[i].Args)
		i++
	}
}

// apply carries out one data command for a thread already switched into the
// VAS it needs, and renders its reply.
func (c *Client) apply(cmd *Command, args []string) []byte {
	var err error
	switch cmd.Op {
	case OpGet, OpMGet:
		var reply []byte
		if reply, err = c.store.AppendReply(nil, args[1:], cmd.Op == OpMGet); err == nil {
			return reply
		}
	case OpSet:
		if err = c.set([]byte(args[1]), []byte(args[2])); err == nil {
			return EncodeSimple("OK")
		}
		if errors.Is(err, mspace.ErrNoSpace) {
			return EncodeError("OOM store segment full")
		}
	case OpDel:
		var found bool
		if found, err = c.store.Del([]byte(args[1])); err == nil {
			if found {
				return EncodeInt(1)
			}
			return EncodeInt(0)
		}
	default:
		return cmd.Refusal(args)
	}
	return EncodeError(err.Error())
}

// runOther is RunAll's arm for what is not a data command: the store-less
// ones, and the slot-copy commands, which take the switches they need
// themselves.
func runOther(c *Client, cmd *Command, args []string) []byte {
	if (cmd.By == ByStore || cmd.By == ByNode) && c == nil {
		return EncodeError("no store behind this handler")
	}
	switch cmd.Op {
	case OpPing:
		if len(args) == 2 {
			return EncodeBulk([]byte(args[1]))
		}
		return EncodeSimple("PONG")
	case OpEcho:
		return EncodeBulk([]byte(args[1]))
	case OpClusterMigrate, OpClusterImport, OpClusterCleanup:
		return c.slotCommand(cmd.Op, args)
	}
	return cmd.Refusal(args)
}
