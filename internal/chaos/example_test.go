package chaos_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"

	"spacejmp/internal/caps"
	"spacejmp/internal/chaos"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
	"spacejmp/internal/tenant"
)

// must fails the example on err and otherwise returns v.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// boot stands up the spec's stack on a loopback port.
func boot(spec chaos.Spec) *chaos.Stack {
	return must(chaos.Boot(&spec, chaos.Front{Addr: "127.0.0.1:0"}))
}

// load runs cfg's closed-loop load against st and prints the claim it checks:
// every reply verified.
func load(st *chaos.Stack, cfg server.LoadConfig) {
	cfg.Addr = st.Server.Addr().String()
	res := must(server.RunLoad(cfg))
	fmt.Printf("%d commands (%d GET, %d SET, %d MGET), failures %v\n", res.Commands, res.Gets, res.Sets, res.MGets, res.Failures())
}

// teardown drains st and prints whether every simulated frame came back.
func teardown(st *chaos.Stack) {
	_, err, leak := st.Teardown()
	must(0, err)
	fmt.Printf("drained, all simulated frames reclaimed: %v\n", leak == nil)
}

// ExampleBoot_serving is RedisJMP made operational (§5.3): the RESP server in
// front of one co-resident node, each of four workers on its own simulated
// core, serving every command by switching into the store's VAS — the lock
// shared for a GET, exclusive for a SET — under a closed-loop load over
// loopback.
func ExampleBoot_serving() {
	st := boot(chaos.Spec{Seed: 1, Machine: "M1",
		Cluster: chaos.ClusterSpec{Nodes: 1, Workers: 4, Mode: "vas", SegSize: 16 << 20}})
	load(st, server.LoadConfig{Conns: 32, Pipeline: 8, Requests: 256, SetPercent: 20, ValueSize: 128})
	teardown(st)
	fmt.Printf("commands served by a VAS switch: %d\n", st.Sys.Stats().Cluster.Local)
	// Output:
	// 8192 commands (6539 GET, 1653 SET, 0 MGET), failures map[cross_leaks:0 errors:0 mismatches:0 stale_violations:0]
	// drained, all simulated frames reclaimed: true
	// commands served by a VAS switch: 8192
}

// ExampleBoot_cluster is Figure 7: the same MGET-heavy load on a three-node
// cluster, first with every node co-resident (a command is a VAS switch onto
// the node's segment), then with every node remote (a command is RESP over
// cache-line channels to the node's core and back). Switching is cheaper per
// command than messaging.
func ExampleBoot_cluster() {
	run := func(mode string) *stats.ClusterSnap {
		st := boot(chaos.Spec{Seed: 1, Machine: "M1", Cluster: chaos.ClusterSpec{Nodes: 3, Workers: 2, Mode: mode}})
		fmt.Printf("mode %s: ", mode)
		load(st, server.LoadConfig{Conns: 8, Pipeline: 4, Requests: 256, SetPercent: 20, MGetPercent: 30, MGetKeys: 4, ValueSize: 64})
		teardown(st)
		return st.Sys.Stats().Cluster
	}
	vas, urpc := run("vas"), run("urpc")
	fmt.Printf("switching is cheaper per command than messaging: %v\n", vas.LocalCycles.Mean() < urpc.RemoteCycles.Mean())
	// Output:
	// mode vas: 2048 commands (1034 GET, 399 SET, 615 MGET), failures map[cross_leaks:0 errors:0 mismatches:0 stale_violations:0]
	// drained, all simulated frames reclaimed: true
	// mode urpc: 2048 commands (1034 GET, 399 SET, 615 MGET), failures map[cross_leaks:0 errors:0 mismatches:0 stale_violations:0]
	// drained, all simulated frames reclaimed: true
	// switching is cheaper per command than messaging: true
}

// ExampleBoot_tenants is §4.2's protection turned into a serving feature. Each
// demo tenant AUTHs into its own view of the shared store, and every
// command's keys are checked against the tenant's capabilities: addressing a
// peer's view is a typed -NOPERM, never a silent miss, until the owner grants
// read access, and a revocation takes it back on live connections. A write
// past a tenant's key quota is refused with -QUOTA before it reaches a node.
func ExampleBoot_tenants() {
	st := boot(chaos.Spec{Seed: 1, Machine: "M1", Cluster: chaos.ClusterSpec{Nodes: 1, Workers: 2, Mode: "vas"},
		Load: chaos.LoadSpec{LoadConfig: server.LoadConfig{Tenants: 2}}, Quotas: tenant.Quotas{MaxKeys: 4}})
	t0, t1 := dial(st, 0), dial(st, 1)
	t0("SET", "invoice:1", "net-30")
	t1("SET", "invoice:1", "net-90")
	t0("GET", "invoice:1")
	t1("GET", "invoice:1")
	t1("GET", "t:t0:invoice:1")

	must(0, st.Tenants.Grant("t0", "t1", caps.RightRead))
	fmt.Println("t0 grants t1 read access")
	t1("GET", "t:t0:invoice:1")
	t1("SET", "t:t0:invoice:1", "tampered")
	must(0, st.Tenants.Revoke("t0"))
	fmt.Println("t0 revokes")
	t1("GET", "t:t0:invoice:1")

	for _, k := range []string{"invoice:2", "invoice:3", "invoice:4", "invoice:5"} {
		t0("SET", k, "net-30") // the quota is 4 keys, invoice:1 included
	}
	for _, info := range st.Tenants.List() {
		fmt.Printf("%s holds %d keys, %d bytes\n", info.ID, info.Keys, info.Bytes)
	}
	teardown(st)
	// Output:
	// t0 SET invoice:1 net-30 -> OK
	// t1 SET invoice:1 net-90 -> OK
	// t0 GET invoice:1 -> net-30
	// t1 GET invoice:1 -> net-90
	// t1 GET t:t0:invoice:1 -> NOPERM spacejmp: access denied: tenant "t1" holds no capability for tenant "t0"'s view (rights 1)
	// t0 grants t1 read access
	// t1 GET t:t0:invoice:1 -> net-30
	// t1 SET t:t0:invoice:1 tampered -> NOPERM spacejmp: access denied: tenant "t1" holds no capability for tenant "t0"'s view (rights 10)
	// t0 revokes
	// t1 GET t:t0:invoice:1 -> NOPERM spacejmp: access denied: tenant "t1" holds no capability for tenant "t0"'s view (rights 1)
	// t0 SET invoice:2 net-30 -> OK
	// t0 SET invoice:3 net-30 -> OK
	// t0 SET invoice:4 net-30 -> OK
	// t0 SET invoice:5 net-30 -> QUOTA tenant: over quota: tenant "t0" over key budget 4
	// t0 holds 4 keys, 24 bytes
	// t1 holds 1 keys, 6 bytes
	// drained, all simulated frames reclaimed: true
}

// dial connects to st as demo tenant i and returns a function that sends one
// command and prints it with its reply (an error reply as its text).
func dial(st *chaos.Stack, i int) func(args ...string) {
	nc := must(net.Dial("tcp", st.Server.Addr().String()))
	br := bufio.NewReader(nc)
	do := func(args ...string) string {
		must(nc.Write(redis.EncodeCommand(args...)))
		v, _, err := redis.ReadReply(br)
		if err != nil {
			return err.Error()
		}
		return string(v)
	}
	id := tenant.DemoID(i)
	if v := do("AUTH", id, tenant.DemoSecret(i)); v != "OK" {
		panic("AUTH " + id + ": " + v)
	}
	return func(args ...string) { fmt.Printf("%s %s -> %s\n", id, strings.Join(args, " "), do(args...)) }
}
