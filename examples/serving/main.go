// Serving: boot the RESP/TCP serving layer in-process, drive it with the
// closed-loop load generator over a real loopback socket, then drain
// gracefully and print the serving-layer stats — per-shard connection and
// command counters, backpressure rejections, and latency percentiles.
//
// This is the RedisJMP result (§5.3) made operational: the backend is a
// cluster of one co-resident node, so each router worker owns a simulated
// core and serves every command by switching into the shared server VAS,
// taking the store segment's lock shared for GETs and exclusive for SETs.
package main

import (
	"fmt"
	"log"
	"net"
	"os"

	"spacejmp/internal/cluster"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/server"
)

func main() {
	m := hw.NewMachine(hw.M1())
	sys := kernel.New(m)
	sys.EnableStats(4096)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := m.PM.AllocatedBytes()
	router, err := cluster.New(sys, cluster.Config{Nodes: 1, Workers: 4, Mode: cluster.ModeVAS, SegSize: 16 << 20})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, server.Config{PipelineDepth: 16}, router)
	fmt.Printf("serving on %s with 4 workers (4 simulated cores)\n\n", srv.Addr())

	res, err := server.RunLoad(server.LoadConfig{
		Addr:       srv.Addr().String(),
		Conns:      32,
		Pipeline:   8,
		Requests:   256,
		SetPercent: 20,
		ValueSize:  128,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load: %d commands (%d GET / %d SET) at %.0f cmd/s\n",
		res.Commands, res.Gets, res.Sets, res.Throughput())
	fmt.Printf("load: p50 ≤%dns p99 ≤%dns, %d busy, %d errors, %d mismatches\n\n",
		res.Latency.Quantile(0.50), res.Latency.Quantile(0.99),
		res.Busy, res.Errors, res.Mismatches)

	if err := srv.Shutdown(); err != nil {
		log.Fatal(err)
	}
	if err := m.PM.CheckLeaks(base); err != nil {
		log.Fatalf("leak after drain: %v", err)
	}
	fmt.Println("drained: all workers exited, all simulated frames reclaimed")

	if snap := sys.Stats(); snap != nil {
		fmt.Println()
		snap.WriteText(os.Stdout)
	}
}
