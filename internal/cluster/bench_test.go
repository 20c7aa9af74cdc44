package cluster

import (
	"fmt"
	"testing"

	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
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
