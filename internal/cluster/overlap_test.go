package cluster

import (
	"bytes"
	"testing"

	"spacejmp/internal/server"
	"spacejmp/internal/urpc"
)

// frameLog is what a node's handler saw of each frame a worker posted to it,
// in post order: enough to price the post on both sides of the channel.
type frameLog struct {
	node          int
	reqLen        int
	respLen       int
	handlerCycles uint64
}

// logFrames puts, ahead of first use, an endpoint from the rig's worker to
// every node whose handler is the node's own behind a recorder.
func (g batchRig) logFrames() *[]frameLog {
	var log []frameLog
	for _, n := range g.r.nodes {
		nodeCore := g.r.sys.M.Cores[n.coreID]
		g.w.eps.put(n.id, urpc.Connect(g.r.sys.M, g.w.th.Core.ID, n.coreID, ringSlots, func(req []byte) []byte {
			before, reqLen := nodeCore.Cycles(), len(req)
			resp := n.handler(req)
			log = append(log, frameLog{n.id, reqLen, len(resp), nodeCore.Cycles() - before})
			return resp
		}))
	}
	return &log
}

// TestRemoteRunsOverlap holds the worker's clock to the max rule, derived
// here from the frames the nodes saw: each member's way in is charged as the
// walk reaches it, and each run's post its own lines (the request's and the
// response's, and one dispatch); its node's turn — the same lines, a dispatch
// and the handler's work — ends at max(post stamp, the node's previous turn)
// + turn; after the stretch the clock goes to each post's end in post order,
// and only then are that run's replies charged their way out. A pipeline over
// three remote nodes, one of which gets two runs (a read phase and a write
// phase), must land the worker on that cycle exactly; the node's second run
// must wait out its first; and the replies must be refExec's on a twin rig.
// A batch of one costs what the per-command model charges.
func TestRemoteRunsOverlap(t *testing.T) {
	model, batch := newBatchRig(t, "urpc", nil), newBatchRig(t, "urpc", nil)
	keys := newPipelines(batch.r, 47).keys
	for nid := range keys {
		for _, k := range keys[nid] {
			for _, g := range []batchRig{model, batch} {
				req := request(false, 0, "SET", k, rigValue(k, nid+1))
				g.r.execBatch(g.w, server.NewBatch([]*server.Request{req}))
			}
		}
	}
	log := batch.logFrames()
	model.logFrames()
	perLine := batch.r.sys.M.Cfg.Cost.CacheLineXfer
	clock := func(g batchRig) uint64 { return g.w.th.Core.Cycles() }

	// The runs, in plan order: node 0's two GETs, node 1's GET and MGET, node
	// 2's GET, then its SET (the write phase, a second run on node 2).
	argvs := [][]string{
		{"GET", keys[0][0]}, {"GET", keys[0][1]}, {"GET", keys[1][0]},
		{"MGET", keys[1][1], keys[1][2]}, {"GET", keys[2][0]}, {"SET", keys[2][1], "overlapped"},
	}
	runs := [][]int{{0, 1}, {2, 3}, {4}, {5}}
	want := requests(argvs, false)
	for _, req := range want {
		req.Finish(refExec(model.r, model.w, req))
	}
	got := requests(argvs, false)
	start := clock(batch)
	*log = (*log)[:0]
	batch.r.execBatch(batch.w, server.NewBatch(got))
	for i := range got {
		if !bytes.Equal(got[i].Reply(), want[i].Reply()) {
			t.Fatalf("command %d %q: reply %q, refExec's %q", i, argvs[i], got[i].Reply(), want[i].Reply())
		}
	}
	if len(*log) != len(runs) {
		t.Fatalf("%d frames posted, want one per run, %d", len(*log), len(runs))
	}
	at, sum := start, start // the max rule, and every post waited out at once
	ready, last := make([]uint64, len(runs)), map[int]uint64{}
	for i, f := range *log {
		for _, j := range runs[i] {
			size := 0
			for _, a := range argvs[j] {
				size += len(a)
			}
			at += server.EdgeCycles(size)
			sum += server.EdgeCycles(size)
		}
		lines := (urpc.Lines(f.reqLen)+urpc.Lines(f.respLen))*perLine + urpc.DispatchCycles
		turn := lines + f.handlerCycles
		at += lines
		ready[i] = max(at, last[f.node]) + turn
		if i == 3 && ready[i] != ready[2]+turn {
			t.Errorf("node %d's second run is done at %d, want after its first (%d) by its turn, %d", f.node, ready[i], ready[2], turn)
		}
		last[f.node] = ready[i]
		sum += lines + turn
	}
	for i, run := range runs {
		at = max(at, ready[i])
		for _, j := range run {
			at += server.EdgeCycles(len(got[j].Reply()))
			sum += server.EdgeCycles(len(got[j].Reply()))
		}
	}
	if g := clock(batch); g != at {
		t.Errorf("worker at cycle %d after the pipeline, the max rule says %d (one post at a time: %d)", g, at, sum)
	}
	if at >= sum {
		t.Errorf("the max rule (%d) saved nothing over one post at a time (%d)", at, sum)
	}

	// A batch of one has nothing to overlap: it costs what refExec charges.
	for _, argv := range argvs {
		m0, b0 := clock(model), clock(batch)
		w, g := request(false, 0, argv...), request(false, 0, argv...)
		w.Finish(refExec(model.r, model.w, w))
		batch.r.execBatch(batch.w, server.NewBatch([]*server.Request{g}))
		if !bytes.Equal(g.Reply(), w.Reply()) || clock(batch)-b0 != clock(model)-m0 {
			t.Errorf("%q alone: %q in %d cycles, refExec %q in %d", argv, g.Reply(), clock(batch)-b0, w.Reply(), clock(model)-m0)
		}
	}
}
