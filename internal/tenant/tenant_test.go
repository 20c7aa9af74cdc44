package tenant

import (
	"errors"
	"testing"
	"time"

	"spacejmp/internal/caps"
	"spacejmp/internal/core"
	"spacejmp/internal/stats"
)

func TestRegisterAndAuthenticate(t *testing.T) {
	r := New(Config{Nodes: 3})
	if _, err := r.Register("acme", "sesame", Quotas{}); err != nil {
		t.Fatal(err)
	}

	got, err := r.Authenticate("acme", "sesame")
	if err != nil || got.ID() != "acme" {
		t.Fatalf("Authenticate = %v, %v", got, err)
	}
	// Wrong secret and unknown id must be the same denial: both wrap
	// core.ErrDenied and neither says which half was wrong.
	if _, err := r.Authenticate("acme", "wrong"); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("wrong secret: err = %v, want core.ErrDenied", err)
	}
	if _, err := r.Authenticate("ghost", "sesame"); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("unknown id: err = %v, want core.ErrDenied", err)
	}

	if _, err := r.Register("acme", "again", Quotas{}); !errors.Is(err, core.ErrExists) {
		t.Fatalf("duplicate register: err = %v, want core.ErrExists", err)
	}
	for _, bad := range []string{"", "a:b", "a b", "a\tb", "a\x7fb"} {
		if _, err := r.Register(bad, "s", Quotas{}); !errors.Is(err, core.ErrInvalid) {
			t.Fatalf("Register(%q): err = %v, want core.ErrInvalid", bad, err)
		}
	}
}

// TestAttachIsolation is the capability boundary itself: a tenant attaches
// its own view freely but holds no capability for a peer's, so the
// cross-view attach is a typed denial — never a miss.
func TestAttachIsolation(t *testing.T) {
	sink := stats.NewSink(1)
	r, err := NewDemo(2, Config{Nodes: 2, Stats: sink}, Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := r.Lookup(DemoID(0))
	t1, _ := r.Lookup(DemoID(1))

	if err := r.Attach(t0, t0.ID(), caps.RightRead|caps.RightWrite); err != nil {
		t.Fatalf("own view attach: %v", err)
	}
	if err := r.Attach(t0, t1.ID(), caps.RightRead); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("cross-view attach: err = %v, want core.ErrDenied", err)
	}
	// An unregistered view is indistinguishable from a denied one.
	if err := r.Attach(t0, "ghost", caps.RightRead); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("unknown view attach: err = %v, want core.ErrDenied", err)
	}
	if got := sink.Snapshot().Tenants[0].CapDenials; got != 2 {
		t.Fatalf("tenant 0 capability denials = %d, want 2", got)
	}
}

// TestGrantAndRevoke walks the Barrelfish sharing story: a read-only grant
// opens exactly read access, revocation transitively closes it again, and
// every transition bumps the generation so cached attachments re-check.
func TestGrantAndRevoke(t *testing.T) {
	r, err := NewDemo(3, Config{Nodes: 2}, Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := r.Lookup(DemoID(1))
	t2, _ := r.Lookup(DemoID(2))

	gen := r.Generation()
	if err := r.Grant(DemoID(0), DemoID(1), caps.RightRead); err != nil {
		t.Fatal(err)
	}
	if r.Generation() == gen {
		t.Fatal("grant did not bump the generation")
	}

	if err := r.Attach(t1, DemoID(0), caps.RightRead); err != nil {
		t.Fatalf("attach after read grant: %v", err)
	}
	// The grant carried read only; writes stay denied.
	if err := r.Attach(t1, DemoID(0), caps.RightWrite); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("write through read grant: err = %v, want core.ErrDenied", err)
	}
	// The grant was to t1; t2 holds nothing.
	if err := r.Attach(t2, DemoID(0), caps.RightRead); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("ungranted tenant: err = %v, want core.ErrDenied", err)
	}

	gen = r.Generation()
	if err := r.Revoke(DemoID(0)); err != nil {
		t.Fatal(err)
	}
	if r.Generation() == gen {
		t.Fatal("revoke did not bump the generation")
	}
	if err := r.Attach(t1, DemoID(0), caps.RightRead); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("attach after revoke: err = %v, want core.ErrDenied", err)
	}
	// The owner's own set survives revocation: only minted children died.
	t0, _ := r.Lookup(DemoID(0))
	if err := r.Attach(t0, DemoID(0), caps.RightRead|caps.RightWrite); err != nil {
		t.Fatalf("owner after revoke: %v", err)
	}

	if err := r.Grant("ghost", DemoID(1), caps.RightRead); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("grant from unknown: err = %v, want core.ErrNotFound", err)
	}
	if err := r.Revoke("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("revoke unknown: err = %v, want core.ErrNotFound", err)
	}
}

func TestByteAndKeyQuotas(t *testing.T) {
	r := New(Config{})
	tn, err := r.Register("q", "s", Quotas{MaxBytes: 100, MaxKeys: 2})
	if err != nil {
		t.Fatal(err)
	}

	undoA, err := tn.ChargeSet("a", 60)
	if err != nil {
		t.Fatal(err)
	}
	_ = undoA
	if _, err := tn.ChargeSet("b", 60); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over byte budget: err = %v, want ErrOverQuota", err)
	}
	// Overwriting a key charges the delta, not the sum.
	if _, err := tn.ChargeSet("a", 90); err != nil {
		t.Fatalf("overwrite within budget: %v", err)
	}
	if b, k := tn.Usage(); b != 90 || k != 1 {
		t.Fatalf("usage = (%d, %d), want (90, 1)", b, k)
	}

	undoB, err := tn.ChargeSet("b", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.ChargeSet("c", 1); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over key budget: err = %v, want ErrOverQuota", err)
	}
	// A rolled-back charge frees its budget again.
	undoB()
	if _, err := tn.ChargeSet("c", 1); err != nil {
		t.Fatalf("charge after rollback: %v", err)
	}

	tn.SettleDel("a")
	if b, k := tn.Usage(); b != 1 || k != 1 {
		t.Fatalf("usage after del = (%d, %d), want (1, 1)", b, k)
	}
	// Deleting an uncharged key is a no-op credit.
	tn.SettleDel("never")
	if b, k := tn.Usage(); b != 1 || k != 1 {
		t.Fatalf("usage after no-op del = (%d, %d), want (1, 1)", b, k)
	}
}

func TestCommandRateBucket(t *testing.T) {
	clock := time.Unix(0, 0)
	r := New(Config{Now: func() time.Time { return clock }})
	tn, err := r.Register("rl", "s", Quotas{Rate: 10, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}

	if err := tn.TakeToken(); err != nil {
		t.Fatal(err)
	}
	if err := tn.TakeToken(); err != nil {
		t.Fatal(err)
	}
	if err := tn.TakeToken(); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("empty bucket: err = %v, want ErrOverQuota", err)
	}
	// 100ms at 10/s refills exactly one token.
	clock = clock.Add(100 * time.Millisecond)
	if err := tn.TakeToken(); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := tn.TakeToken(); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("refilled exactly one: err = %v, want ErrOverQuota", err)
	}
	// A long idle stretch caps at Burst, not Rate*dt.
	clock = clock.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if err := tn.TakeToken(); err != nil {
			t.Fatalf("token %d after idle: %v", i, err)
		}
	}
	if err := tn.TakeToken(); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("bucket deeper than burst: err = %v, want ErrOverQuota", err)
	}
}

func TestDemoRegistry(t *testing.T) {
	r, err := NewDemo(3, Config{Nodes: 2}, Quotas{MaxKeys: 7})
	if err != nil {
		t.Fatal(err)
	}
	ids := r.IDs()
	if len(ids) != 3 || ids[0] != "t0" || ids[2] != "t2" {
		t.Fatalf("IDs = %v, want [t0 t1 t2]", ids)
	}
	for i, info := range r.List() {
		if info.ID != DemoID(i) || info.Quotas.MaxKeys != 7 {
			t.Fatalf("List()[%d] = %+v", i, info)
		}
	}
	if _, err := r.Authenticate(DemoID(1), DemoSecret(1)); err != nil {
		t.Fatal(err)
	}
}
