package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mem"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// benchRouter boots a two-node, one-worker cluster with every node local
// (ModeVAS) or remote (ModeURPC) and 256 keys of 64-byte values on it —
// the router rung of the ladder, with no TCP and no connection above it.
func benchRouter(tb testing.TB, mode Mode) (*Router, [][]string) {
	return benchCluster(tb, mode, 2)
}

// benchCluster is benchRouter with the given number of nodes (at most three:
// the small machine has four cores).
func benchCluster(tb testing.TB, mode Mode, nodes int) (*Router, [][]string) {
	tb.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: nodes, Workers: 1, Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := r.Close(); err != nil {
			tb.Error(err)
		}
	})
	gets := make([][]string, 256)
	value := string(make([]byte, 64))
	for i := range gets {
		key := fmt.Sprintf("key:%06d", i)
		gets[i] = []string{"GET", key}
		if resp := submitWait(r, []string{"SET", key, value}); string(resp) != "+OK\r\n" {
			tb.Fatalf("SET %s: %q", key, resp)
		}
	}
	return r, gets
}

// submitWait hands one command to the router the way a connection does and
// waits for its reply.
func submitWait(r *Router, args []string) []byte {
	req := server.NewRequest(args)
	for !r.Submit(1, req) {
	}
	return req.Wait()
}

func benchRouterExec(b *testing.B, mode Mode) {
	r, gets := benchRouter(b, mode)
	core := r.workers[1%len(r.workers)].th.Core
	start := core.Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := submitWait(r, gets[i%len(gets)]); len(resp) != 4+1+64+2 {
			b.Fatalf("GET: %q", resp)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(core.Cycles()-start)/float64(b.N), "sim-cycles/op")
}

// BenchmarkRouterExecLocal is a GET served by a VAS switch into a
// co-resident store; BenchmarkRouterExecRemote is the same GET re-encoded,
// shipped over urpc, decoded and served by the node, and its reply shipped
// back. sim-cycles/op is the worker core's charge per command.
func BenchmarkRouterExecLocal(b *testing.B)  { benchRouterExec(b, ModeVAS) }
func BenchmarkRouterExecRemote(b *testing.B) { benchRouterExec(b, ModeURPC) }

// BenchmarkRouterExecRun is the batch rung: k GETs of keys one node owns,
// submitted as a connection submits one buffer fill, so they are one run —
// one switch pair (local) or one urpc frame (remote) for the k of them. The
// first key of batch i is the key BenchmarkRouterExecLocal/Remote GET at
// step i and the rest follow it on its node, so the k=1 rows are those
// benchmarks' sim-cycles/op. Everything is reported per command:
// sim-cycles/op is the worker core's charge, allocs/op the command's own two
// (request, reply; a remote one four more) plus its share of the batch's
// three.
func BenchmarkRouterExecRun(b *testing.B) {
	for _, c := range []struct {
		name string
		mode Mode
	}{{"local", ModeVAS}, {"remote", ModeURPC}} {
		for _, k := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
				r, gets := benchRouter(b, c.mode)
				byNode := map[int][][]string{}
				at := make([]int, len(gets)) // position of gets[i] in its node's list
				for i, get := range gets {
					nid := r.Owner(r.Slot(get[1]))
					at[i] = len(byNode[nid])
					byNode[nid] = append(byNode[nid], get)
				}
				core := r.workers[1%len(r.workers)].th.Core
				start := core.Cycles()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += k {
					lead := i / k % len(gets)
					mine := byNode[r.Owner(r.Slot(gets[lead][1]))]
					reqs := make([]*server.Request, k)
					for j := range reqs {
						args := mine[(at[lead]+j)%len(mine)]
						reqs[j] = &server.Request{Args: args, Cmd: redis.Lookup(args)}
					}
					batch := server.NewBatch(reqs)
					for r.SubmitBatch(1, batch) == 0 {
					}
					batch.Wait(k)
					for _, req := range reqs {
						if len(req.Reply()) != 4+1+64+2 {
							b.Fatalf("GET: %q", req.Reply())
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(core.Cycles()-start)/float64((b.N+k-1)/k*k), "sim-cycles/op")
			})
		}
	}
}

// roundRobin returns the router's GETs grouped by owning node and dealt out
// round robin — one node's, the next node's, … — into pipelines of depth 16,
// so that no two neighbours share a node.
func roundRobin(r *Router, gets [][]string) [][][]string {
	byNode := make([][][]string, len(r.nodes))
	for _, get := range gets {
		nid := r.Owner(r.Slot(get[1]))
		byNode[nid] = append(byNode[nid], get)
	}
	var pipes [][][]string
	next := make([]int, len(byNode)) // each node's next GET
	for {
		var pipe [][]string
		for j := range 16 {
			nid := j % len(byNode)
			if next[nid] == len(byNode[nid]) {
				return pipes
			}
			pipe = append(pipe, byNode[nid][next[nid]])
			next[nid]++
		}
		pipes = append(pipes, pipe)
	}
}

// submitPipeline hands reqs, commands on the benchRouter keys, to the router
// as one connection's buffer fill, waits for every reply and checks each one.
func submitPipeline(tb testing.TB, r *Router, reqs []*server.Request) {
	batch := server.NewBatch(reqs)
	for r.SubmitBatch(1, batch) == 0 {
	}
	batch.Wait(len(reqs))
	for _, req := range reqs {
		if len(req.Reply()) != replyLen(req.Args) {
			tb.Fatalf("%s: %q", req.Args[0], req.Reply())
		}
	}
}

// replyLen is the length of the reply to a GET, SET (of a 64-byte value) or
// MGET of fewer than ten benchRouter keys.
func replyLen(args []string) int {
	const get = 4 + 1 + 64 + 2
	switch args[0] {
	case "SET":
		return len("+OK\r\n")
	case "MGET":
		return len("*8\r\n") + (len(args)-1)*get
	}
	return get
}

// BenchmarkRouterExecBatch is the grouping rung: pipelines of 16 GETs dealt
// round robin over three nodes, all co-resident (vas) or all remote (urpc),
// each submitted as one buffer fill, so no two neighbours share a node: one
// run per node, 3 switch pairs or 3 frames per 16 commands. mixed is seeded
// pipelines of 16 — 40 % GET, 40 % SET, 20 % MGET of 8 keys — over two
// co-resident nodes and a remote one, where each MGET's parts join their
// nodes' runs. Everything is per command and repeats to the cycle: cycles/cmd
// the worker core's charge, switches/cmd every VAS switch on the machine (a
// frame's pair is on the node's core), frames/cmd the urpc request frames.
func BenchmarkRouterExecBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		mode Mode
	}{{"vas", ModeVAS}, {"urpc", ModeURPC}, {"mixed", ModeAuto}} {
		b.Run(c.name, func(b *testing.B) {
			r, gets := benchCluster(b, c.mode, 3)
			pipes := roundRobin(r, gets)
			if c.mode == ModeAuto {
				pipes = mixedPipelines(gets)
			}
			w := r.workers[0]
			cycles, switches, sent := w.th.Core.Cycles(), r.sys.Switches(), w.eps.frames()
			cmds := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; cmds < b.N; i++ {
				pipe := pipes[i%len(pipes)]
				reqs := make([]*server.Request, len(pipe))
				for j, args := range pipe {
					reqs[j] = &server.Request{Args: args, Cmd: redis.Lookup(args)}
				}
				submitPipeline(b, r, reqs)
				cmds += len(reqs)
			}
			b.StopTimer()
			per := func(v uint64) float64 { return float64(v) / float64(cmds) }
			b.ReportMetric(per(w.th.Core.Cycles()-cycles), "cycles/cmd")
			b.ReportMetric(per(r.sys.Switches()-switches), "switches/cmd")
			b.ReportMetric(per(w.eps.frames()-sent), "frames/cmd")
		})
	}
}

// BenchmarkFigure7Pipelined is Figure 7 under pipelining (EXPERIMENTS.md):
// pipelines of depth GETs dealt round robin over the first nodes of a
// three-node cluster, every node co-resident (vas: the worker switches into
// each store) or every node remote (urpc: the stretch's frames in flight
// together). cycles/cmd is the worker core's clock, all-cycles/cmd every
// core's summed.
func BenchmarkFigure7Pipelined(b *testing.B) {
	for _, mode := range []Mode{ModeVAS, ModeURPC} {
		for _, nodes := range []int{1, 2, 3} {
			for _, depth := range []int{1, 4, 16} {
				if nodes > depth {
					continue
				}
				b.Run(fmt.Sprintf("%s/nodes=%d/depth=%d", mode, nodes, depth), func(b *testing.B) {
					r, gets := benchCluster(b, mode, 3)
					byNode := make([][][]string, 3)
					for _, get := range gets {
						nid := r.Owner(r.Slot(get[1]))
						byNode[nid] = append(byNode[nid], get)
					}
					all := func() (sum uint64) {
						for _, c := range r.sys.M.Cores {
							sum += c.Cycles()
						}
						return sum
					}
					w := r.workers[0]
					cycles, total, cmds := w.th.Core.Cycles(), all(), 0
					b.ResetTimer()
					for i := 0; cmds < b.N; i++ {
						reqs := make([]*server.Request, depth)
						for j := range reqs {
							mine := byNode[j%nodes]
							args := mine[(i*depth+j)/nodes%len(mine)]
							reqs[j] = &server.Request{Args: args, Cmd: redis.Lookup(args)}
						}
						submitPipeline(b, r, reqs)
						cmds += depth
					}
					b.StopTimer()
					b.ReportMetric(float64(w.th.Core.Cycles()-cycles)/float64(cmds), "cycles/cmd")
					b.ReportMetric(float64(all()-total)/float64(cmds), "all-cycles/cmd")
				})
			}
		}
	}
}

// mixedPipelines is 64 seeded pipelines of 16 commands on the benchRouter
// keys: 40 % GET, 40 % SET of a 64-byte value (so every GET still reads 64
// bytes), 20 % MGET of 8 keys, each key drawn from all of them.
func mixedPipelines(gets [][]string) [][][]string {
	rng := rand.New(rand.NewSource(1))
	key := func() string { return gets[rng.Intn(len(gets))][1] }
	value := string(make([]byte, 64))
	pipes := make([][][]string, 64)
	for i := range pipes {
		for range 16 {
			switch op := rng.Intn(5); {
			case op < 2:
				pipes[i] = append(pipes[i], []string{"GET", key()})
			case op < 4:
				pipes[i] = append(pipes[i], []string{"SET", key(), value})
			default:
				argv := []string{"MGET"}
				for range 8 {
					argv = append(argv, key())
				}
				pipes[i] = append(pipes[i], argv)
			}
		}
	}
	return pipes
}

// mget8 returns MGETs of 8 of the router's keys each: every key owned by node
// when node >= 0, else consecutive keys wherever they hash.
func mget8(r *Router, gets [][]string, node int) [][]string {
	var out [][]string
	argv := []string{"MGET"}
	for _, get := range gets {
		if node >= 0 && r.Owner(r.Slot(get[1])) != node {
			continue
		}
		if argv = append(argv, get[1]); len(argv) == 9 {
			out, argv = append(out, argv), []string{"MGET"}
		}
	}
	return out
}

// BenchmarkRouterMGet is an MGET of 8 keys spread over a co-resident and a
// remote node: two key groups, one served by a VAS switch and one by a urpc
// round trip, their array replies cut up and joined in key order.
// sim-cycles/op is the worker core's charge per command.
func BenchmarkRouterMGet(b *testing.B) {
	r, gets := benchRouter(b, ModeAuto)
	mgets := mget8(r, gets, -1)
	core := r.workers[1%len(r.workers)].th.Core
	start := core.Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := submitWait(r, mgets[i%len(mgets)]); len(resp) != 4+8*(4+1+64+2) {
			b.Fatalf("MGET: %q", resp)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(core.Cycles()-start)/float64(b.N), "sim-cycles/op")
}

// BenchmarkApplyImage is one checkpoint ship's apply on the monitor: tear the
// standby down, allocate it again and store every non-zero word of a 16 MiB
// store segment's image (about 700 pages of data) into it. sim-cycles/op is
// the monitor core's charge, the modelled cost of a ship.
func BenchmarkApplyImage(b *testing.B) {
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		b.Fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	names := redis.ShardNames(0)
	c, err := redis.NewClientNamed(th, 16<<20, names)
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 1024)
	for i := range value {
		value[i] = byte(i%251 + 1)
	}
	for i := 0; i < 2500; i++ {
		if err := c.Set(fmt.Sprintf("key:%06d", i), value); err != nil {
			b.Fatal(err)
		}
	}
	img, err := sys.SegmentImageOf(names.Seg, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	data := 0
	for i := range img.Index {
		if !bytes.Equal(img.Page(i), make([]byte, img.PageSize)) {
			data++
		}
	}
	m, n := &monitor{proc: proc, th: th}, &node{standby: redis.StandbyNames(0)}
	start := th.Core.Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.applyImage(n, img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(th.Core.Cycles()-start)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(data), "data-pages")
}

// shipBenchStore fills a ship rig's store with BenchmarkApplyImage's 2 500
// keys of 1 KiB and returns the node's work between two forks: 128 SETs of
// 1 KiB over them, each value changed.
func shipBenchStore(b *testing.B, g *shipRig) (write128 func()) {
	value := make([]byte, 1024)
	for i := range value {
		value[i] = byte(i%251 + 1)
	}
	const keys = 2500
	set := func(i int) {
		if err := g.c.Set(fmt.Sprintf("key:%06d", i%keys), value); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		set(i)
	}
	next := 0
	return func() {
		for w := 0; w < 128; w++ {
			value[0]++
			set(next)
			next += 37
		}
	}
}

// BenchmarkShipDelta is one steady-state ship of the same 16 MiB store as the
// monitor and the fork engine see it: fork, 128 SETs of 1 KiB against the view
// (untimed: they are the node's work), extract the pages written since the
// generation the standby holds, patch the standing standby with them.
// sim-cycles/op is the monitor core's charge for the extract and the patch —
// BenchmarkApplyImage's is the same for a full rebuild — and pages/op how
// many pages a ship moved.
func BenchmarkShipDelta(b *testing.B) {
	g := newShipRig(b, 16<<20)
	write128 := shipBenchStore(b, g)
	g.ship() // the one full ship
	var cycles uint64
	pages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := g.fork()
		b.StopTimer()
		write128()
		b.StartTimer()
		start := g.th.Core.Cycles()
		img, err := g.forks.Image(v, g.n.held)
		if err == nil {
			err = g.mon.applyImage(g.n, img)
		}
		if err != nil || img.Base == 0 {
			b.Fatalf("ship of generation %d over generation %d: %v", v.Gen(), img.Base, err)
		}
		g.n.held = v.Gen()
		cycles += g.th.Core.Cycles() - start
		pages += len(img.Index)
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	g.close()
}

// BenchmarkForkReply is the half of a ship that holds the node mutex, on
// BenchmarkShipDelta's store, here in NVM as a replicated primary's is: 128
// SETs of 1 KiB (untimed), then the node's CLUSTER.FORK reply. warm: the
// standby holds a generation, so the reply forks and nothing more; cold: it
// holds none, so the reply writes a superblock generation first. Host time
// and allocations only.
func BenchmarkForkReply(b *testing.B) {
	for _, bc := range []struct {
		name string
		held uint64
	}{{"warm", 1}, {"cold", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			g := newShipRig(b, 16<<20, core.WithTier(mem.TierNVM))
			write128 := shipBenchStore(b, g)
			n := &node{sys: g.sys, th: g.th, names: g.names, forks: g.forks, held: bc.held}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				write128()
				b.StartTimer()
				if reply := n.forkReply(); reply[0] == '-' {
					b.Fatalf("fork reply: %s", reply)
				}
			}
			b.StopTimer()
			g.close()
		})
	}
}
