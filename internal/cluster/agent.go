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

// ringSlots is the capacity of every urpc channel, in cache lines.
const ringSlots = 256

// claimThread spawns a process and claims a simulated core for its one
// thread — how every agent of the cluster comes to own a core. The caller
// owns proc.Exit.
func (r *Router) claimThread() (*core.Process, *core.Thread, error) {
	proc, err := r.sys.NewProcess(core.Creds{UID: 1, GID: 1})
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

// connect opens a urpc channel from an agent's core to remote node n.
func (r *Router) connect(fromCore int, n *node) *urpc.Endpoint {
	return urpc.Connect(r.sys.M, fromCore, n.coreID, ringSlots, n.handler)
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
// returns the reply's payload, an error reply as the ReplyError it decodes
// to. On a client it is redis.Execute; over urpc it is the same command on
// the wire, unbudgeted and unattributed, as one frame — or, for the one reply
// that can outgrow the ring (a slot dump), the bulk framing under n.mu.
// Either way redis.Run carries it out.
func (t target) run(n *node, argv ...string) (payload []byte, err error) {
	var resp []byte
	switch {
	case t.client != nil:
		resp = redis.Execute(t.client, argv)
	case argv[0] == redis.ClusterMigrate:
		n.mu.Lock()
		resp, err = n.callBulk(t.ep, redis.EncodeCommand(argv...))
		n.mu.Unlock()
	default:
		resp, _, err = n.call(t.ep, redis.EncodeCommand(argv...), 0)
	}
	if err != nil {
		return nil, err
	}
	payload, _, err = redis.DecodeReply(resp)
	return payload, err
}

// endpointSet is the monitor's or the engine's private endpoints to remote
// nodes — probes, ships and slot copies must not queue behind data traffic
// on the workers' channels — each connected on first use. The mutex is for
// PendingFrames, which reads the set from outside the agent's goroutine.
type endpointSet struct {
	coreID int

	mu  sync.Mutex
	eps map[int]*urpc.Endpoint
}

// to returns the endpoint to node n, connecting it on first use.
func (s *endpointSet) to(r *Router, n *node) *urpc.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := s.eps[n.id]
	if ep == nil {
		if s.eps == nil {
			s.eps = map[int]*urpc.Endpoint{}
		}
		ep = r.connect(s.coreID, n)
		s.eps[n.id] = ep
	}
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
