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
	"os"

	"spacejmp/internal/chaos"
	"spacejmp/internal/server"
)

func main() {
	// The stack goes up and down where spacejmp-server's does (chaos.Boot).
	st, err := chaos.Boot(&chaos.Spec{Seed: 1, Machine: "M1",
		Cluster: chaos.ClusterSpec{Nodes: 1, Workers: 4, Mode: "vas", SegSize: 16 << 20},
	}, chaos.Front{Addr: "127.0.0.1:0", TraceCap: 4096, Pipeline: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on %s with 4 workers (4 simulated cores)\n\n", st.Server.Addr())

	res, err := server.RunLoad(server.LoadConfig{
		Addr:       st.Server.Addr().String(),
		Conns:      32,
		Pipeline:   8,
		Requests:   256,
		SetPercent: 20,
		ValueSize:  128,
	})
	if err != nil {
		log.Fatal(err)
	}
	res.WriteText(os.Stdout, "load: ")
	fmt.Println()

	if _, err, leak := st.Teardown(); err != nil {
		log.Fatal(err)
	} else if leak != nil {
		log.Fatalf("leak after drain: %v", leak)
	}
	fmt.Println("drained: all workers exited, all simulated frames reclaimed")
	fmt.Println()
	st.Sys.Stats().WriteText(os.Stdout)
}
