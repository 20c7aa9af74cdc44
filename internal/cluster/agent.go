package cluster

import (
	"fmt"
	"sync"

	"spacejmp/internal/core"
	"spacejmp/internal/redis"
	"spacejmp/internal/urpc"
)

// What the cluster's agents — router workers, the health monitor, the
// migration engine — have in common.

// ringSlots is the capacity of every urpc channel, in cache lines. A frame
// that outgrows it crosses in bursts.
const ringSlots = 256

// claimThread spawns a process and claims a simulated core for its one
// thread — how every agent of the cluster comes to own a core. Its primary is
// tagged, like every VAS the cluster switches between (the store VASes:
// redis.ShardNames; fork views), so no switch of the serving path flushes the
// TLB. The caller owns proc.Exit.
func (r *Router) claimThread() (*core.Process, *core.Thread, error) {
	proc, err := r.sys.NewTaggedProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return nil, nil, err
	}
	th, err := proc.NewThread()
	if err != nil {
		proc.Exit()
		return nil, nil, err
	}
	r.pids = append(r.pids, proc.PID)
	return proc, th, nil
}

// attachStore returns the client an agent holds, in cache, on the store
// that serves node n over the VAS path: its own when co-resident, its
// standby once promoted. The caller resolved n to one of the two, so the
// store exists — except at wiring, where a worker's first attachment to a
// co-resident node bootstraps it. Attached on first use, on the agent's
// thread, and kept until the agent exits.
func (r *Router) attachStore(th *core.Thread, cache map[int]*redis.Client, n *node) (*redis.Client, error) {
	if c := cache[n.id]; c != nil {
		return c, nil
	}
	names := n.names
	if !n.local {
		names = n.standby
	}
	c, err := redis.NewClientNamed(th, r.cfg.SegSize, names)
	if err != nil {
		return nil, fmt.Errorf("node %d store %s: %w", n.id, names.Seg, err)
	}
	cache[n.id] = c
	return c, nil
}

// run executes one command on the copy of node n's range that t reaches —
// the client or the endpoint an agent's reach (or resolve) handed it — and
// returns the reply's payload, nil for a nil reply, an error reply as the
// ReplyError it decodes to. On a client it is redis.Execute; over urpc it is the same command on
// the wire, unbudgeted and unattributed, through n.call, at any size (a
// slot's import or dump), its turn waited out at once. Either way
// redis.RunAll carries it out.
func (t target) run(n *node, argv ...string) (payload []byte, err error) {
	var resp []byte
	if t.client != nil {
		resp = redis.Execute(t.client, argv)
	} else {
		var turn uint64
		resp, turn, err = n.call(t.ep, redis.EncodeCommand(argv...), nil, 0)
		if t.ep.ClientCore().AddCycles(turn); err != nil {
			return nil, err
		}
	}
	payload, _, err = redis.DecodeReply(resp)
	return payload, err
}

// endpointSet is an agent's private endpoints to remote nodes, each connected
// on first use — a worker's data channels, the monitor's probes and ships,
// the engine's slot copies, so none queues behind another's traffic. Only the
// owning agent's goroutine calls to, so it reads the map without the mutex;
// the mutex orders to's inserts against pending, which PendingFrames calls
// from outside that goroutine.
type endpointSet struct {
	coreID int

	mu  sync.Mutex
	eps map[int]*urpc.Endpoint
}

// to returns the endpoint to node n, opening a urpc channel from the agent's
// core on first use.
func (s *endpointSet) to(r *Router, n *node) *urpc.Endpoint {
	if ep := s.eps[n.id]; ep != nil {
		return ep
	}
	ep := urpc.Connect(r.sys.M, s.coreID, n.coreID, ringSlots, n.handler)
	s.mu.Lock()
	if s.eps == nil {
		s.eps = map[int]*urpc.Endpoint{}
	}
	s.eps[n.id] = ep
	s.mu.Unlock()
	return ep
}

// pending returns the frames sitting unconsumed on the endpoint to node
// id, 0 when none was ever connected.
func (s *endpointSet) pending(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep := s.eps[id]; ep != nil {
		return ep.Pending()
	}
	return 0
}
