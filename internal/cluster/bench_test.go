package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// benchRouter boots a two-node, one-worker cluster with every node local
// (ModeVAS) or remote (ModeURPC) and 256 keys of 64-byte values on it —
// the router rung of the ladder, with no TCP and no connection above it.
func benchRouter(tb testing.TB, mode Mode) (*Router, [][]string) {
	tb.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	r, err := New(sys, Config{Nodes: 2, Workers: 1, Mode: mode})
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

// BenchmarkShipDelta is one steady-state ship of the same 16 MiB store as the
// monitor and the fork engine see it: fork, 128 SETs of 1 KiB against the view
// (untimed: they are the node's work), extract the pages written since the
// generation the standby holds, patch the standing standby with them.
// sim-cycles/op is the monitor core's charge for the extract and the patch —
// BenchmarkApplyImage's is the same for a full rebuild — and pages/op how
// many pages a ship moved.
func BenchmarkShipDelta(b *testing.B) {
	g := newShipRig(b, 16<<20)
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
	g.ship() // the one full ship
	var cycles uint64
	pages, next := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := g.fork()
		b.StopTimer()
		for w := 0; w < 128; w++ {
			value[0]++
			set(next)
			next += 37
		}
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
