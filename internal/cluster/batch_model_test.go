package cluster

import (
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/urpc"
)

// The reference model of the serving path: Router.exec and the route, exec1,
// execOn and callNode under it as they stood while the command was the unit —
// one budget, one topology read lock, one resolve, one switch pair or one
// frame per command. Kept verbatim, except that the multi-key read is refMGet
// (mget_model_test.go, where TestMGetMatchesModel holds the batch path's MGET
// to it) and the wire is encoded afresh, so the differentials in batch_test.go
// can hold the batch path to it: what a batch answers, what it leaves in the
// stores, and exactly which switches and frames it saves. A call's node turn
// is waited out as soon as it is posted (refCallNode's ready stamp), except
// among an MGET's parts, which refMGet keeps in flight together.

func refExec(r *Router, w *worker, req *server.Request) []byte {
	w.bud = overload.Arm(req.Deadline, w.th.Core.Cycles())
	args := req.Args
	var n int
	for _, a := range args {
		n += len(a)
	}
	w.th.Core.AddCycles(server.EdgeCycles(n))
	resp := refRoute(r, w, req)
	w.th.Core.AddCycles(server.EdgeCycles(len(resp)))
	if w.bud.Active() {
		r.ctr.Overload.BudgetRemaining.Observe(w.bud.Remaining(w.th.Core.Cycles()))
	}
	return resp
}

func refRoute(r *Router, w *worker, req *server.Request) []byte {
	cmd, args := req.Cmd, req.Args
	switch cmd.By {
	case redis.ByStore:
		r.topoMu.RLock()
		defer r.topoMu.RUnlock()
		if cmd.Op == redis.OpMGet {
			return refMGet(r, w, cmd, cmd.Keys(args), req.Readonly)
		}
		return refExec1(r, w, cmd, args, req.Readonly)
	case redis.ByRouter:
		switch cmd.Op {
		case redis.OpClusterSlots:
			return r.clusterSlotsReply()
		case redis.OpClusterNodes:
			return r.clusterNodesReply()
		}
		return redis.Run(nil, cmd, args) // PING, ECHO
	}
	return cmd.Refusal(args)
}

func refExec1(r *Router, w *worker, cmd *redis.Command, args []string, readonly bool) []byte {
	slot := r.Slot(args[cmd.FirstKey])
	resp := refExecOn(r, w, r.nodes[r.Owner(slot)], cmd, args, readonly)
	if mig := r.migs[slot].Load(); mig != nil && cmd.Write {
		mig.touch(cmd.Keys(args))
	}
	return resp
}

func refExecOn(r *Router, w *worker, n *node, cmd *redis.Command, args []string, readonly bool) []byte {
	t := r.resolve(w, n, cmd, readonly)
	switch {
	case t.refusal != nil:
		return t.refusal
	case t.frozen != nil:
		if one := []redis.Call{{Cmd: cmd, Args: args}}; r.readFrozen(w, t, one) {
			return one[0].Reply
		}
		return refExecOn(r, w, n, cmd, args, false)
	case t.client != nil:
		before := w.th.Core.Cycles()
		resp := redis.Run(t.client, cmd, args)
		refLocal(r, n, w.th.Core.Cycles()-before)
		return resp
	}
	resp, errReply, ready := refCallNode(r, w, n, t.ep, redis.EncodeCommand(args...))
	if w.th.Core.Await(ready); errReply != nil {
		return errReply
	}
	return resp
}

// refCallNode posts wire to node n and returns, besides the reply, the stamp
// on the worker's clock at which the node's turn is done.
func refCallNode(r *Router, w *worker, n *node, ep *urpc.Endpoint, wire []byte) (resp, errReply []byte, ready uint64) {
	before := w.th.Core.Cycles()
	resp, turn, err := n.call(ep, wire, nil, w.callBudget())
	now := w.th.Core.Cycles()
	total := now - before + turn
	n.noteOutcome(err)
	if err != nil {
		return nil, r.remoteError(n, err), now + turn
	}
	r.obs.ClusterRemote(n.id, total)
	r.ctr.URPCCallCycles.Observe(total)
	return resp, nil, now + turn
}

// refLocal counts one command served on node n's VAS path, as serve does.
func refLocal(r *Router, n *node, cycles uint64) {
	r.ctr.Local.Add(1)
	r.ctr.LocalCycles.Observe(cycles)
	n.ctr.Local.Add(1)
}
