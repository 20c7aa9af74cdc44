package server_test

import (
	"bufio"
	"errors"
	"net"
	"testing"

	"spacejmp/internal/caps"
	"spacejmp/internal/core"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

// startTenantServer boots the one-node serving stack fronted by a demo
// tenant registry sharing the machine's stats sink.
func startTenantServer(t *testing.T, tenants int, q tenant.Quotas) (*core.System, *server.Server, *tenant.Registry) {
	t.Helper()
	sys := newSystem(t, nil)
	reg, err := tenant.NewDemo(tenants, tenant.Config{Nodes: 1, Stats: sys.M.Observer()}, q)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := serve(t, sys, 1, 0, server.Config{Tenants: reg})
	return sys, srv, reg
}

func dialTenant(t *testing.T, srv *server.Server, id, secret string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	br := bufio.NewReader(nc)
	if id != "" {
		if v, _, err := roundTrip(t, nc, br, "AUTH", id, secret); err != nil || string(v) != "OK" {
			t.Fatalf("AUTH %s: %q %v", id, v, err)
		}
	}
	return nc, br
}

// TestTenantAuthGate: with a registry attached, data commands are denied
// until AUTH binds the connection, store-less commands pass, and bad
// credentials are the same typed denial as a missing capability.
func TestTenantAuthGate(t *testing.T) {
	_, srv, _ := startTenantServer(t, 1, tenant.Quotas{})
	defer srv.Shutdown()
	nc, br := dialTenant(t, srv, "", "")

	if v, _, err := roundTrip(t, nc, br, "PING"); err != nil || string(v) != "PONG" {
		t.Fatalf("unauthenticated PING: %q %v", v, err)
	}
	if _, _, err := roundTrip(t, nc, br, "GET", "k"); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("unauthenticated GET: err = %v, want redis.ErrNoPerm", err)
	}
	if _, _, err := roundTrip(t, nc, br, "SET", "k", "v"); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("unauthenticated SET: err = %v, want redis.ErrNoPerm", err)
	}
	if _, _, err := roundTrip(t, nc, br, "AUTH", "t0", "wrong"); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("bad AUTH: err = %v, want redis.ErrNoPerm", err)
	}
	if _, _, err := roundTrip(t, nc, br, "AUTH", "t0"); err == nil {
		t.Fatal("AUTH with bad arity succeeded")
	}
	if v, _, err := roundTrip(t, nc, br, "AUTH", "t0", "s0"); err != nil || string(v) != "OK" {
		t.Fatalf("AUTH: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc, br, "SET", "k", "v"); err != nil || string(v) != "OK" {
		t.Fatalf("authenticated SET: %q %v", v, err)
	}
}

// TestTenantIsolation is the acceptance test for the capability boundary:
// two tenants write the same logical key without collision, and a
// cross-tenant address fails with the typed -NOPERM sentinel — a denial,
// never a missing-key nil.
func TestTenantIsolation(t *testing.T) {
	_, srv, _ := startTenantServer(t, 2, tenant.Quotas{})
	defer srv.Shutdown()

	nc0, br0 := dialTenant(t, srv, "t0", "s0")
	nc1, br1 := dialTenant(t, srv, "t1", "s1")

	if v, _, err := roundTrip(t, nc0, br0, "SET", "shared", "zero"); err != nil || string(v) != "OK" {
		t.Fatalf("t0 SET: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc1, br1, "SET", "shared", "one"); err != nil || string(v) != "OK" {
		t.Fatalf("t1 SET: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc0, br0, "GET", "shared"); err != nil || string(v) != "zero" {
		t.Fatalf("t0 view: %q %v, want zero", v, err)
	}
	if v, _, err := roundTrip(t, nc1, br1, "GET", "shared"); err != nil || string(v) != "one" {
		t.Fatalf("t1 view: %q %v, want one", v, err)
	}

	// The cross-view address is denied with the typed sentinel, not served
	// and not answered nil: a key t1 cannot see is different from a key
	// that does not exist.
	_, isNil, err := roundTrip(t, nc1, br1, "GET", redis.TenantKey("t0", "shared"))
	if !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("cross-view GET: err = %v (nil=%v), want redis.ErrNoPerm", err, isNil)
	}
	if _, _, err := roundTrip(t, nc1, br1, "SET", redis.TenantKey("t0", "shared"), "stomp"); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("cross-view SET: err = %v, want redis.ErrNoPerm", err)
	}
	if _, _, err := roundTrip(t, nc1, br1, "MGET", "shared", redis.TenantKey("t0", "shared")); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("cross-view MGET: err = %v, want redis.ErrNoPerm", err)
	}
	// NOPERM is terminal, not retryable: a client must not loop on it.
	if _, _, err := roundTrip(t, nc1, br1, "GET", redis.TenantKey("t0", "shared")); retryable(err) {
		t.Fatal("cross-view denial classified retryable")
	}
	// The denied writes left t0's data untouched.
	if v, _, err := roundTrip(t, nc0, br0, "GET", "shared"); err != nil || string(v) != "zero" {
		t.Fatalf("t0 view after denials: %q %v, want zero", v, err)
	}
	// A tenant addressing its own view explicitly is allowed.
	if v, _, err := roundTrip(t, nc0, br0, "GET", redis.TenantKey("t0", "shared")); err != nil || string(v) != "zero" {
		t.Fatalf("explicit own-view GET: %q %v", v, err)
	}
}

// TestTenantGrantRevoke drives a live grant and revocation through serving
// connections: a read grant opens exactly read access mid-connection, and
// the revoke slams it shut again without a redial — the generation-keyed
// attachment cache re-checks.
func TestTenantGrantRevoke(t *testing.T) {
	_, srv, reg := startTenantServer(t, 2, tenant.Quotas{})
	defer srv.Shutdown()

	nc0, br0 := dialTenant(t, srv, "t0", "s0")
	nc1, br1 := dialTenant(t, srv, "t1", "s1")

	if v, _, err := roundTrip(t, nc0, br0, "SET", "doc", "body"); err != nil || string(v) != "OK" {
		t.Fatalf("t0 SET: %q %v", v, err)
	}
	crossKey := redis.TenantKey("t0", "doc")
	if _, _, err := roundTrip(t, nc1, br1, "GET", crossKey); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("pre-grant GET: err = %v, want redis.ErrNoPerm", err)
	}

	if err := reg.Grant("t0", "t1", caps.RightRead); err != nil {
		t.Fatal(err)
	}
	if v, _, err := roundTrip(t, nc1, br1, "GET", crossKey); err != nil || string(v) != "body" {
		t.Fatalf("granted GET: %q %v, want body", v, err)
	}
	// Read grant, write denied.
	if _, _, err := roundTrip(t, nc1, br1, "SET", crossKey, "stomp"); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("write through read grant: err = %v, want redis.ErrNoPerm", err)
	}
	if _, _, err := roundTrip(t, nc1, br1, "DEL", crossKey); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("DEL through read grant: err = %v, want redis.ErrNoPerm", err)
	}

	if err := reg.Revoke("t0"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := roundTrip(t, nc1, br1, "GET", crossKey); !errors.Is(err, redis.ErrNoPerm) {
		t.Fatalf("post-revoke GET: err = %v, want redis.ErrNoPerm", err)
	}
	// The owner's own access is untouched by revoking its grants.
	if v, _, err := roundTrip(t, nc0, br0, "GET", "doc"); err != nil || string(v) != "body" {
		t.Fatalf("owner after revoke: %q %v", v, err)
	}
}

// TestTenantQuotaEnforcement drives the byte/key budgets end to end: the
// rejection is the typed -QUOTA reply, a DEL frees budget, a failed charge
// never leaks usage, and the rejection lands in the tenant's stats block.
func TestTenantQuotaEnforcement(t *testing.T) {
	sys, srv, reg := startTenantServer(t, 1, tenant.Quotas{MaxKeys: 2, MaxBytes: 64})
	defer srv.Shutdown()
	nc, br := dialTenant(t, srv, "t0", "s0")

	if v, _, err := roundTrip(t, nc, br, "SET", "a", "1"); err != nil || string(v) != "OK" {
		t.Fatalf("SET a: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc, br, "SET", "b", "2"); err != nil || string(v) != "OK" {
		t.Fatalf("SET b: %q %v", v, err)
	}
	if _, _, err := roundTrip(t, nc, br, "SET", "c", "3"); !errors.Is(err, redis.ErrQuota) {
		t.Fatalf("over key budget: err = %v, want redis.ErrQuota", err)
	}
	if _, _, err := roundTrip(t, nc, br, "SET", "a", string(make([]byte, 65))); !errors.Is(err, redis.ErrQuota) {
		t.Fatalf("over byte budget: err = %v, want redis.ErrQuota", err)
	}
	// Reads are never byte/key-gated.
	if v, _, err := roundTrip(t, nc, br, "GET", "a"); err != nil || string(v) != "1" {
		t.Fatalf("GET under quota pressure: %q %v", v, err)
	}
	// DEL frees the key's budget; the next SET fits again.
	if v, _, err := roundTrip(t, nc, br, "DEL", "b"); err != nil || string(v) != "1" {
		t.Fatalf("DEL b: %q %v", v, err)
	}
	if v, _, err := roundTrip(t, nc, br, "SET", "c", "3"); err != nil || string(v) != "OK" {
		t.Fatalf("SET after DEL: %q %v", v, err)
	}

	t0, _ := reg.Lookup("t0")
	if b, k := t0.Usage(); k != 2 || b != 2 {
		t.Fatalf("usage = (%d bytes, %d keys), want (2, 2)", b, k)
	}
	snap := sys.Stats()
	if snap == nil || len(snap.Tenants) != 1 {
		t.Fatalf("snapshot tenants = %+v, want one block", snap.Tenants)
	}
	ts := snap.Tenants[0]
	if ts.QuotaRejections != 2 || ts.Commands == 0 {
		t.Fatalf("tenant snap = %+v, want 2 quota rejections and counted commands", ts)
	}
}

// TestTenantRateLimit drives the command-rate bucket through the wire: a
// burst-2 tenant gets two commands through and the third is a typed,
// non-retryable -QUOTA.
func TestTenantRateLimit(t *testing.T) {
	_, srv, _ := startTenantServer(t, 1, tenant.Quotas{Rate: 0.001, Burst: 2})
	defer srv.Shutdown()
	nc, br := dialTenant(t, srv, "t0", "s0")

	for i := 0; i < 2; i++ {
		if v, _, err := roundTrip(t, nc, br, "SET", "k", "v"); err != nil || string(v) != "OK" {
			t.Fatalf("SET %d: %q %v", i, v, err)
		}
	}
	_, _, err := roundTrip(t, nc, br, "GET", "k")
	if !errors.Is(err, redis.ErrQuota) {
		t.Fatalf("rate-limited GET: err = %v, want redis.ErrQuota", err)
	}
	if retryable(err) {
		t.Fatal("quota rejection classified retryable")
	}
}

// retryable reports whether err is a RESP error reply the retry loop would
// spin on.
func retryable(err error) bool {
	var re redis.ReplyError
	return errors.As(err, &re) && redis.IsRetryableReply(re)
}

// TestTenantLoadGeneratorProbes runs the tenant-aware load generator
// against a tenant server: both views verify independently, every
// cross-view probe is denied, and none leak.
func TestTenantLoadGeneratorProbes(t *testing.T) {
	_, srv, _ := startTenantServer(t, 2, tenant.Quotas{})
	defer srv.Shutdown()

	res, err := server.RunLoad(server.LoadConfig{
		Addr:  srv.Addr().String(),
		Conns: 4, Pipeline: 2, Requests: 64,
		SetPercent: 30, Keys: 32,
		Tenants: 2, Auth: true, CrossCheckEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 || res.Errors != 0 {
		t.Fatalf("load: %d mismatches, %d errors", res.Mismatches, res.Errors)
	}
	if res.CrossDenied == 0 {
		t.Fatal("no cross-view probes were denied; probes did not run")
	}
	if res.CrossLeaks != 0 {
		t.Fatalf("%d cross-view leaks", res.CrossLeaks)
	}
}
