package redis

import "errors"

// Execute resolves one already-parsed command against the command table
// and runs it on a client's store. Callers that already hold the resolved
// row (the router, via server.Request) call Run directly.
func Execute(c *Client, args []string) []byte {
	return Run(c, Lookup(args), args)
}

// Run executes a resolved command against a client's store and renders the
// RESP reply. It is the one place commands are carried out: the router's
// co-resident fast path, the shard node handlers and the cluster's own
// agents (replaying a delta log, copying a slot) all end here, so a command
// behaves identically whether it was served locally over a VAS switch or
// remotely over urpc. cmd must be Lookup(args) — arity is already checked.
//
// A nil client serves only the store-less commands (PING, ECHO); commands
// that need a store answer with an error reply. Commands another layer
// answers are unknown here. Whether the sender may issue a command at all is
// the caller's business: the router refuses ByNode rows arriving from a
// connection before they get this far.
func Run(c *Client, cmd *Command, args []string) []byte {
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
	case OpGet, OpMGet:
		reply, err := c.bulkReply(args[1:], cmd.Op == OpMGet)
		if err != nil {
			return EncodeError(err.Error())
		}
		return reply
	case OpSet:
		if err := c.Set(args[1], []byte(args[2])); err != nil {
			if errors.Is(err, ErrStoreFull) {
				return EncodeError("OOM store segment full")
			}
			return EncodeError(err.Error())
		}
		return EncodeSimple("OK")
	case OpDel:
		found, err := c.Del(args[1])
		if err != nil {
			return EncodeError(err.Error())
		}
		if found {
			return EncodeInt(1)
		}
		return EncodeInt(0)
	case OpClusterMigrate, OpClusterImport, OpClusterCleanup:
		return c.slotCommand(cmd.Op, args)
	}
	return cmd.Refusal(args)
}
