package redis_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

// validArgs builds the shortest valid invocation of a table row: the name
// in mixed case, the subcommand if the row has one, then filler up to the
// minimum arity, with key standing at every key position.
func validArgs(c redis.Command, key string) []string {
	args := []string{strings.ToLower(c.Name[:1]) + c.Name[1:]}
	if c.Sub != "" {
		args = append(args, strings.ToLower(c.Sub))
	}
	for len(args) < c.MinArgs {
		args = append(args, "7") // DEADLINE wants a number; nobody else cares
	}
	for i := range c.Keys(args) {
		args[c.FirstKey+i] = key
	}
	return args
}

// wrongArities returns the row's invocation with one argument too few and
// one too many — whichever of the two the row's bounds make possible.
func wrongArities(c redis.Command, key string) [][]string {
	args := validArgs(c, key)
	var out [][]string
	if len(args) > 1 {
		out = append(out, args[:len(args)-1])
	}
	if c.MaxArgs >= 0 {
		long := append([]string(nil), args...)
		for len(long) <= c.MaxArgs {
			long = append(long, "extra")
		}
		out = append(out, long)
	}
	return out
}

// captureBackend fakes the serving backend: it answers +OK and keeps every
// request it was handed, so the test sees exactly what the front-end —
// reader, table lookup, tenant admission — lets through and in what shape.
type captureBackend struct {
	mu   sync.Mutex
	seen []*server.Request
}

func (b *captureBackend) Bind(uint64) uint64 { return 0 }
func (b *captureBackend) Close() error       { return nil }
func (b *captureBackend) SubmitBatch(_ uint64, batch *server.Batch) int {
	b.mu.Lock()
	b.seen = append(b.seen, batch.Reqs...)
	b.mu.Unlock()
	for _, r := range batch.Reqs {
		r.Finish(redis.EncodeSimple("OK"))
	}
	batch.Answered(len(batch.Reqs))
	return len(batch.Reqs)
}

// take returns and forgets the requests seen so far.
func (b *captureBackend) take() []*server.Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := b.seen
	b.seen = nil
	return seen
}

// submit runs one command through the router the way the benchmark ladder
// does: no connection reader in front, so the router's own refusal is what
// answers.
func submit(t *testing.T, r *cluster.Router, args []string) []byte {
	t.Helper()
	req := server.NewRequest(args)
	if !r.Submit(1, req) {
		t.Fatalf("router busy on %q", args)
	}
	return req.Wait()
}

func keyOn(t *testing.T, r *cluster.Router, node int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.Owner(r.Slot(k)) == node {
			return k
		}
	}
	t.Fatalf("no key found for node %d", node)
	return ""
}

// TestCommandTable walks every row of the command table through every
// layer that consumes it, so the layers cannot drift apart again: names
// resolve case-insensitively, a wrong argument count is the same
// wrong-arity reply from Execute, from the router (whether the key lives
// on a co-resident or a remote node — and without a urpc call), and from a
// tenant connection (without reaching admission's quotas or the backend),
// and the row's key positions and write flag are exactly what tenant
// admission rewrites and what the replication delta log records.
func TestCommandTable(t *testing.T) {
	// One co-resident node (0) and one replicated remote node (1). Ships
	// are parked — only the boot ship runs — so the remote node's delta log
	// only ever grows.
	hwCfg := hw.SmallTest()
	hwCfg.Mem.NVMSuperblock = 1 << 20
	m := hw.NewMachine(hwCfg)
	sys := kernel.New(m)
	sys.EnableStats(0)
	r, err := cluster.New(sys, cluster.Config{
		Nodes: 2, Workers: 1, Mode: cluster.ModeAuto, Locals: 1, SegSize: 1 << 20,
		Replication: cluster.ReplicationConfig{Enabled: true, ShipEvery: 1 << 20, ShipInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	obs := m.Observer()
	keys := []string{keyOn(t, r, 0), keyOn(t, r, 1)}
	deltaBuffered := func() int { return r.Health()[1].DeltaBuffered }

	// A tenant front-end over the capturing backend.
	reg, err := tenant.NewDemo(1, tenant.Config{Stats: obs}, tenant.Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backend := &captureBackend{}
	srv := server.NewWithBackend(sys, ln, server.Config{Tenants: reg}, backend)
	defer srv.Shutdown()
	// asTenant sends one command on a fresh authenticated connection (fresh
	// because QUIT is a row too) and returns the raw reply line.
	asTenant := func(args []string) string {
		t.Helper()
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		nc.Write(redis.EncodeCommand("AUTH", tenant.DemoID(0), tenant.DemoSecret(0)))
		if line, err := br.ReadString('\n'); err != nil || line != "+OK\r\n" {
			t.Fatalf("AUTH: %q %v", line, err)
		}
		nc.Write(redis.EncodeCommand(args...))
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return line
	}
	// billed is the tenant's admitted-command count (the snapshot omits
	// the tenant block until something was admitted).
	billed := func() uint64 {
		if ts := obs.Snapshot().Tenants; len(ts) > 0 {
			return ts[0].Commands
		}
		return 0
	}

	for i, row := range redis.Commands() {
		name := row.Name + " " + row.Sub
		valid := validArgs(row, "k")
		if got := redis.Lookup(valid); got != &redis.Commands()[i] {
			t.Errorf("%s: Lookup(%q) resolved to %+v", name, valid, got)
		}

		for node, key := range keys {
			for _, bad := range wrongArities(row, key) {
				want := redis.EncodeWrongArity(bad[0])
				if cmd := redis.Lookup(bad); cmd.Op != redis.OpBadArity || cmd.By != redis.ByNobody {
					t.Errorf("%s: Lookup(%q) = %+v, want the bad-arity refusal", name, bad, cmd)
				}
				if got := redis.Execute(nil, bad); !bytes.Equal(got, want) {
					t.Errorf("%s: Execute(%q) = %q, want %q", name, bad, got, want)
				}
				// The router refuses before it touches any node, wherever
				// the key lives.
				local, remote := obs.Snapshot().Dense().Cluster.Local, obs.Snapshot().Dense().Cluster.Remote
				if got := submit(t, r, bad); !bytes.Equal(got, want) {
					t.Errorf("%s: router (key on node %d) answered %q to %q", name, node, got, bad)
				}
				if obs.Snapshot().Dense().Cluster.Local != local || obs.Snapshot().Dense().Cluster.Remote != remote {
					t.Errorf("%s: wrong-arity %q reached node %d", name, bad, node)
				}
				// A tenant connection gets the same reply, pays nothing for
				// it, and nothing reaches the backend.
				before := billed()
				if got := asTenant(bad); got != string(want) {
					t.Errorf("%s: tenant connection answered %q to %q, want %q", name, got, bad, want)
				}
				if seen := backend.take(); len(seen) != 0 {
					t.Errorf("%s: wrong-arity %q reached the backend", name, bad)
				}
				if billed() != before {
					t.Errorf("%s: wrong-arity %q was billed to the tenant", name, bad)
				}
			}
		}

		// Admission rewrites exactly the row's key positions.
		sent := validArgs(row, "k")
		asTenant(sent)
		seen := backend.take()
		if row.By == redis.ByConn {
			if len(seen) != 0 {
				t.Errorf("%s: inline command reached the backend", name)
			}
		} else if len(seen) != 1 {
			t.Errorf("%s: backend saw %d requests, want 1", name, len(seen))
		} else {
			got := seen[0].Args
			if seen[0].Cmd != &redis.Commands()[i] {
				t.Errorf("%s: request carries %+v", name, seen[0].Cmd)
			}
			for j := range sent {
				want := sent[j]
				if row.FirstKey > 0 && j >= row.FirstKey && j < row.FirstKey+len(row.Keys(sent)) {
					want = redis.TenantKey(tenant.DemoID(0), sent[j])
				}
				if got[j] != want {
					t.Errorf("%s: arg %d reached the backend as %q, want %q", name, j, got[j], want)
				}
			}
		}

		// The delta log records exactly the rows flagged Write.
		if row.By == redis.ByStore {
			before := deltaBuffered()
			if reply := submit(t, r, validArgs(row, keys[1])); reply[0] == '-' {
				t.Errorf("%s: remote node refused %q", name, reply)
			}
			grew := deltaBuffered() - before
			if row.Write && grew != 1 || !row.Write && grew != 0 {
				t.Errorf("%s: Write=%v but the delta log grew by %d", name, row.Write, grew)
			}
		}
	}
}
