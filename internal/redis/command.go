package redis

import "strings"

// The command table: every fact about what a command *is* lives in one row
// here. Lookup resolves a parsed command against it once; every layer
// downstream (connection reader, tenant admission, router, delta logs, node
// handler, Run) switches on the resolved row instead of re-reading the
// name. Adding a command is one row plus one arm: in Run for anything that
// needs a store and nothing else (ByStore, and ByNode's slot-copy commands),
// in the connection reader, the router or the node handler for what only
// they can answer.

// Op is a resolved command's opcode.
type Op uint8

const (
	// OpUnknown: no such command. Refusal renders the reply.
	OpUnknown Op = iota
	// OpBadArity: a known command with the wrong number of arguments.
	OpBadArity

	OpGet
	OpMGet
	OpSet
	OpDel
	OpPing
	OpEcho
	OpClusterSlots
	OpClusterNodes
	OpQuit
	OpReadonly
	OpReadwrite
	OpDeadline
	OpAuth
	OpClusterFork
	OpClusterMigrate
	OpClusterImport
	OpClusterCleanup
)

// Answerer names the layer that answers a command.
type Answerer uint8

const (
	// ByNobody: refused — unknown name or wrong arity (see Refusal).
	ByNobody Answerer = iota
	// ByConn: answered inline by the connection reader (per-connection
	// state only).
	ByConn
	// ByRouter: answered by the router without touching a store.
	ByRouter
	// ByStore: executed against the store of the node owning its keys.
	ByStore
	// ByNode: node-control, sent by the cluster's own agents to a copy of a
	// key range (target.run) and never accepted from a connection. The
	// slot-copy commands are carried out by Run; CLUSTER.FORK by the node
	// handler.
	ByNode
)

// Node-control command names, for the agents that encode them.
const (
	ClusterFork    = "CLUSTER.FORK"
	ClusterMigrate = "CLUSTER.MIGRATE"
	ClusterImport  = "CLUSTER.IMPORT"
	ClusterCleanup = "CLUSTER.CLEANUP"
)

// Command is one row of the command table.
type Command struct {
	// Name is the canonical upper-case name; Sub, when set, is the
	// subcommand that must follow it (CLUSTER SLOTS).
	Name, Sub string
	Op        Op
	// MinArgs and MaxArgs bound the argument count, name included. MaxArgs
	// -1 means unbounded.
	MinArgs, MaxArgs int
	// FirstKey and LastKey are the positions of the first and last key
	// argument; 0 means the command carries no keys, LastKey -1 means every
	// argument from FirstKey on is a key.
	FirstKey, LastKey int
	// Write marks commands that mutate the store: they need the write
	// right, bill byte/key quotas, and are recorded in the delta logs.
	Write bool
	// Value is the position of the value a write stores under its key —
	// what a tenant's byte quota is charged for; 0 for a write that stores
	// nothing (a delete, which credits the quota instead).
	Value int
	By    Answerer
}

var table = [...]Command{
	// Data commands first: Lookup scans in order.
	{Name: "GET", Op: OpGet, MinArgs: 2, MaxArgs: 2, FirstKey: 1, LastKey: 1, By: ByStore},
	{Name: "SET", Op: OpSet, MinArgs: 3, MaxArgs: 3, FirstKey: 1, LastKey: 1, Write: true, Value: 2, By: ByStore},
	{Name: "MGET", Op: OpMGet, MinArgs: 2, MaxArgs: -1, FirstKey: 1, LastKey: -1, By: ByStore},
	{Name: "DEL", Op: OpDel, MinArgs: 2, MaxArgs: 2, FirstKey: 1, LastKey: 1, Write: true, By: ByStore},

	{Name: "PING", Op: OpPing, MinArgs: 1, MaxArgs: 2, By: ByRouter},
	{Name: "ECHO", Op: OpEcho, MinArgs: 2, MaxArgs: 2, By: ByRouter},
	{Name: "CLUSTER", Sub: "SLOTS", Op: OpClusterSlots, MinArgs: 2, MaxArgs: 2, By: ByRouter},
	{Name: "CLUSTER", Sub: "NODES", Op: OpClusterNodes, MinArgs: 2, MaxArgs: 2, By: ByRouter},

	{Name: "QUIT", Op: OpQuit, MinArgs: 1, MaxArgs: 1, By: ByConn},
	{Name: "READONLY", Op: OpReadonly, MinArgs: 1, MaxArgs: 1, By: ByConn},
	{Name: "READWRITE", Op: OpReadwrite, MinArgs: 1, MaxArgs: 1, By: ByConn},
	{Name: "DEADLINE", Op: OpDeadline, MinArgs: 2, MaxArgs: 2, By: ByConn},
	{Name: "AUTH", Op: OpAuth, MinArgs: 3, MaxArgs: 3, By: ByConn},

	{Name: ClusterFork, Op: OpClusterFork, MinArgs: 1, MaxArgs: 1, By: ByNode},
	{Name: ClusterMigrate, Op: OpClusterMigrate, MinArgs: 3, MaxArgs: 3, By: ByNode},
	{Name: ClusterImport, Op: OpClusterImport, MinArgs: 3, MaxArgs: 3, By: ByNode},
	{Name: ClusterCleanup, Op: OpClusterCleanup, MinArgs: 3, MaxArgs: 3, By: ByNode},
}

// The refusals Lookup resolves to. They are rows nobody answers, so a
// switch on By or Op needs no separate validity check.
var (
	unknownCommand = Command{Op: OpUnknown}
	unknownSub     = Command{Op: OpUnknown}
	badArity       = Command{Op: OpBadArity}
)

// Commands returns the command table, for tests and fuzz corpora.
func Commands() []Command { return table[:] }

// Lookup resolves a parsed command: case-insensitive name (and subcommand)
// match, then the arity check. It never returns nil and does not allocate:
// a miss resolves to a row answered ByNobody, whose reply Refusal renders.
func Lookup(args []string) *Command {
	if len(args) == 0 {
		return &unknownCommand
	}
	miss := &unknownCommand
	for i := range table {
		c := &table[i]
		if len(c.Name) != len(args[0]) || !strings.EqualFold(c.Name, args[0]) {
			continue
		}
		if c.Sub != "" {
			if len(args) < 2 {
				return &badArity
			}
			if !strings.EqualFold(c.Sub, args[1]) {
				miss = &unknownSub
				continue
			}
		}
		if len(args) < c.MinArgs || (c.MaxArgs >= 0 && len(args) > c.MaxArgs) {
			return &badArity
		}
		return c
	}
	return miss
}

// Keys returns the key arguments of a resolved command — a sub-slice of
// args, so rewriting a key through it rewrites the command.
func (c *Command) Keys(args []string) []string {
	if c.FirstKey == 0 {
		return nil
	}
	last := c.LastKey
	if last < 0 {
		last = len(args) - 1
	}
	return args[c.FirstKey : last+1]
}

// Refusal renders the error reply for a command the caller does not
// answer: wrong arity, an unknown subcommand, or — for everything else,
// including known commands that belong to another layer — unknown command.
func (c *Command) Refusal(args []string) []byte {
	switch {
	case len(args) == 0:
		return EncodeError("empty command")
	case c.Op == OpBadArity:
		return EncodeWrongArity(args[0])
	case c == &unknownSub:
		return EncodeError("unknown " + args[0] + " subcommand: " + args[1])
	}
	return EncodeUnknownCommand(args[0])
}
