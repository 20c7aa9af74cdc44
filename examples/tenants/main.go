// Tenants: multi-tenant serving over per-tenant VAS views — the §4.2
// protection story (lockable segments guarded by ACLs on named VASes)
// turned into a serving feature. Each tenant AUTHs into its own view of
// the shared store; the registry holds a capability set per tenant, minted
// from the root CSpace, and every command's keys are checked against it at
// admission. A tenant addressing a peer's view gets a typed -NOPERM — never
// a silent miss — until the owner grants read access, and a revocation
// closes the window again on live connections. Quotas (keys here) reject
// over-budget writes with -QUOTA before they touch a shard.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"

	"spacejmp/internal/caps"
	"spacejmp/internal/cluster"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

func main() {
	m := hw.NewMachine(hw.M1())
	sys := kernel.New(m)
	sys.EnableStats(1024)

	// Two tenants with their own credentials; acme also gets a tight key
	// quota so the budget rejection is visible below.
	reg := tenant.New(tenant.Config{Nodes: 1, Stats: m.Observer()})
	if _, err := reg.Register("acme", "sesame", tenant.Quotas{MaxKeys: 4}); err != nil {
		log.Fatal(err)
	}
	if _, err := reg.Register("globex", "hunter2", tenant.Quotas{}); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	router, err := cluster.New(sys, cluster.Config{Nodes: 1, Workers: 2, Mode: cluster.ModeVAS})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.NewWithBackend(sys, ln, server.Config{Tenants: reg}, router)
	fmt.Printf("serving %s on %s\n\n", reg, srv.Addr())

	acme := dial(srv.Addr().String(), "acme", "sesame")
	globex := dial(srv.Addr().String(), "globex", "hunter2")

	// Each view sees only itself: the same logical key holds different
	// values per tenant, and neither can see the other's.
	acme.must("SET", "invoice:1", "net-30")
	globex.must("SET", "invoice:1", "net-90")
	fmt.Printf("acme   GET invoice:1        -> %q\n", acme.must("GET", "invoice:1"))
	fmt.Printf("globex GET invoice:1        -> %q\n", globex.must("GET", "invoice:1"))

	// Addressing the peer's view explicitly is a typed denial, not a miss.
	_, err = globex.do("GET", "t:acme:invoice:1")
	fmt.Printf("globex GET t:acme:invoice:1 -> %v\n\n", err)

	// The owner grants read access: the registry mints a read-only child
	// of acme's capabilities into globex's CSpace, and the generation bump
	// makes live connections re-check.
	if err := reg.Grant("acme", "globex", caps.RightRead); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after Grant(acme -> globex, read):\n")
	fmt.Printf("globex GET t:acme:invoice:1 -> %q\n", globex.must("GET", "t:acme:invoice:1"))
	_, err = globex.do("SET", "t:acme:invoice:1", "tampered")
	fmt.Printf("globex SET t:acme:invoice:1 -> %v (grant carried read only)\n\n", err)

	// Revocation kills every minted child transitively — the same live
	// connection loses access without redialing.
	if err := reg.Revoke("acme"); err != nil {
		log.Fatal(err)
	}
	_, err = globex.do("GET", "t:acme:invoice:1")
	fmt.Printf("after Revoke(acme):\nglobex GET t:acme:invoice:1 -> %v\n\n", err)

	// acme's key quota is 4; invoice:1 is already charged, so three more
	// keys fit and the fifth write bounces with -QUOTA.
	for i := 2; i <= 5; i++ {
		k := fmt.Sprintf("invoice:%d", i)
		if _, err := acme.do("SET", k, "net-30"); err != nil {
			fmt.Printf("acme SET %s -> %v\n", k, err)
		} else {
			fmt.Printf("acme SET %s -> OK\n", k)
		}
	}
	fmt.Println()

	for _, info := range reg.List() {
		fmt.Printf("tenant %-6s usage: %d keys, %d bytes (quota %+v)\n",
			info.ID, info.Keys, info.Bytes, info.Quotas)
	}

	acme.close()
	globex.close()
	if err := srv.Shutdown(); err != nil {
		log.Fatal(err)
	}
	if snap := sys.Stats(); snap != nil && len(snap.Tenants) > 0 {
		fmt.Println()
		snap.WriteText(os.Stdout)
	}
}

// client is a minimal RESP client bound to one tenant identity.
type client struct {
	nc net.Conn
	br *bufio.Reader
}

func dial(addr, id, secret string) *client {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	c := &client{nc: nc, br: bufio.NewReader(nc)}
	if v, err := c.do("AUTH", id, secret); err != nil || v != "OK" {
		log.Fatalf("AUTH %s: %q %v", id, v, err)
	}
	return c
}

func (c *client) do(args ...string) (string, error) {
	if _, err := c.nc.Write(redis.EncodeCommand(args...)); err != nil {
		log.Fatal(err)
	}
	v, _, err := redis.ReadReply(c.br)
	return string(v), err
}

func (c *client) must(args ...string) string {
	v, err := c.do(args...)
	if err != nil {
		log.Fatalf("%v: %v", args, err)
	}
	return v
}

func (c *client) close() { c.nc.Close() }
