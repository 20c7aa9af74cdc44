// Cluster: run the keyspace-sharded cluster layer in both of its serving
// modes back to back and print the Figure 7 comparison. In vas mode every
// shard node is co-resident with the router, so each command is one VAS
// switch onto the shard's lockable segment; in urpc mode every node is
// remote, so each command is serialized to RESP and moved over cache-line
// channels to the shard's core and back. The same MGET-heavy load runs
// against both, and the per-mode worker-core cycle distributions come out
// of the stats sink side by side — switching should beat messaging, most
// visibly on multi-key commands (§5.3, Figure 7).
package main

import (
	"fmt"
	"log"

	"spacejmp/internal/chaos"
	"spacejmp/internal/cluster"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
)

const (
	nodes   = 3
	workers = 2
)

func main() {
	vas := runMode(cluster.ModeVAS)
	urpc := runMode(cluster.ModeURPC)

	fmt.Println("Figure 7 shape — per-command worker-core cycles by serving mode:")
	fmt.Printf("  %-22s %12s %12s %12s\n", "mode", "mean", "p50", "p99")
	row := func(name string, h stats.HistSnap) {
		fmt.Printf("  %-22s %12.0f %12d %12d\n", name, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
	row("vas (switch)", vas.LocalCycles)
	row("urpc (message)", urpc.RemoteCycles)
	row("urpc call alone", urpc.URPCCallCycles)

	speedup := urpc.RemoteCycles.Mean() / vas.LocalCycles.Mean()
	fmt.Printf("\nVAS switching is %.1fx cheaper per command than urpc messaging\n", speedup)
	if speedup <= 1 {
		log.Fatal("expected the shared-VAS fast path to beat message passing (Figure 7)")
	}
	fmt.Println("(the paper's Figure 7 finds the same ordering: switching wins, and the")
	fmt.Println(" gap widens with the keys per command, because extra keys cost memory")
	fmt.Println(" accesses on the switching side but cache-line transfers on the other)")
}

// runMode boots a fresh machine, serves one MGET-heavy load through the
// cluster in the given mode, drains, checks for leaks, and returns the
// cluster counters.
func runMode(mode cluster.Mode) *stats.ClusterSnap {
	st, err := chaos.Boot(&chaos.Spec{Seed: 1, Machine: "M1",
		Cluster: chaos.ClusterSpec{Nodes: nodes, Workers: workers, Mode: string(mode)},
	}, chaos.Front{Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(st.Router)

	res, err := server.RunLoad(server.LoadConfig{
		Addr:        st.Server.Addr().String(),
		Conns:       8,
		Pipeline:    4,
		Requests:    256,
		SetPercent:  20,
		MGetPercent: 30,
		MGetKeys:    4,
		ValueSize:   64,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Errors > 0 || res.Mismatches > 0 {
		log.Fatalf("mode %s: %d errors, %d mismatches", mode, res.Errors, res.Mismatches)
	}
	fmt.Printf("  load: %d commands (%d GET / %d SET / %d MGET), %d busy\n",
		res.Commands, res.Gets, res.Sets, res.MGets, res.Busy)

	if _, err, leak := st.Teardown(); err != nil {
		log.Fatal(err)
	} else if leak != nil {
		log.Fatalf("mode %s: leak after drain: %v", mode, leak)
	}
	fmt.Println("  drained: frames reclaimed, urpc channels empty")
	fmt.Println()
	return st.Sys.Stats().Cluster
}
