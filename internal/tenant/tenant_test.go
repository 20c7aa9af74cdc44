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

	ok, refused, deleted := []byte("+OK\r\n"), []byte("-ERR segment full\r\n"), []byte(":1\r\n")
	a, err := tn.ChargeSet("a", 60)
	if err != nil {
		t.Fatal(err)
	}
	a.Settle(ok)
	if _, err := tn.ChargeSet("b", 60); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over byte budget: err = %v, want ErrOverQuota", err)
	}
	// Overwriting a key charges the delta, not the sum.
	a, err = tn.ChargeSet("a", 90)
	if err != nil {
		t.Fatalf("overwrite within budget: %v", err)
	}
	a.Settle(ok)
	if b, k := tn.Usage(); b != 90 || k != 1 {
		t.Fatalf("usage = (%d, %d), want (90, 1)", b, k)
	}

	b, err := tn.ChargeSet("b", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.ChargeSet("c", 1); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over key budget: err = %v, want ErrOverQuota", err)
	}
	// A refused charge frees its budget again.
	b.Settle(refused)
	c, err := tn.ChargeSet("c", 1)
	if err != nil {
		t.Fatalf("charge after a refusal: %v", err)
	}
	c.Settle(ok)

	tn.ChargeDel("a").Settle(deleted)
	if b, k := tn.Usage(); b != 1 || k != 1 {
		t.Fatalf("usage after del = (%d, %d), want (1, 1)", b, k)
	}
	// Deleting an uncharged key is a no-op credit.
	tn.ChargeDel("never").Settle(deleted)
	if b, k := tn.Usage(); b != 1 || k != 1 {
		t.Fatalf("usage after no-op del = (%d, %d), want (1, 1)", b, k)
	}
}

// TestUsageFollowsTheStore: one connection's charges on one key — two SETs
// and a DEL, in every arrival order — are admitted, then settle in arrival
// order, each applied or refused as the store decided. Usage then reads what
// the store holds, for a key the tenant never wrote and for one it holds —
// and when two connections' charges settle out of the store's order.
func TestUsageFollowsTheStore(t *testing.T) {
	for _, order := range [][]string{{"SET", "SET", "DEL"}, {"SET", "DEL", "SET"}, {"DEL", "SET", "SET"}} {
		for _, initial := range []int{-1, 5} { // -1: the store does not hold the key
			for applied := 0; applied < 1<<len(order); applied++ {
				tn, err := New(Config{}).Register("q", "s", Quotas{MaxBytes: 100, MaxKeys: 2})
				if err != nil {
					t.Fatal(err)
				}
				held, size := initial >= 0, max(initial, 0)
				if held {
					c, _ := tn.ChargeSet("k", initial)
					c.Settle([]byte("+OK\r\n"))
				}
				charges, lens, n := make([]Charge, len(order)), make([]int, len(order)), 0
				for i, op := range order {
					if op == "DEL" {
						charges[i] = tn.ChargeDel("k")
						continue
					}
					n += 10
					lens[i] = n // the first SET 10 bytes, the second 20
					if charges[i], err = tn.ChargeSet("k", lens[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i, op := range order {
					reply := "-BUSY slot migrating\r\n"
					switch {
					case applied>>i&1 == 0:
					case op == "SET":
						reply, held, size = "+OK\r\n", true, lens[i]
					case held:
						reply, held, size = ":1\r\n", false, 0
					default:
						reply = ":0\r\n"
					}
					charges[i].Settle([]byte(reply))
				}
				wantKeys := uint64(0)
				if held {
					wantKeys = 1
				}
				if b, k := tn.Usage(); b != uint64(size) || k != wantKeys {
					t.Errorf("%v over a stored size of %d (-1: none), op i applied if bit i of %03b: usage (%d, %d), the store holds (%d, %d)",
						order, initial, applied, b, k, size, wantKeys)
				}
			}
		}
	}

	// Two connections writing one key settle in either order, not always the
	// store's: the latest-admitted write the store applied is what it holds.
	ok, refused, deleted := []byte("+OK\r\n"), []byte("-BUSY slot migrating\r\n"), []byte(":1\r\n")
	type settle struct {
		op    int // which admitted charge
		reply []byte
	}
	for _, c := range []struct {
		name    string
		ops     []int // admitted in this order: a SET of so many bytes, or a DEL (0)
		settles []settle
		bytes   uint64
		keys    uint64
	}{
		{"the later SET refused and settled first, the earlier applied",
			[]int{10, 20}, []settle{{1, refused}, {0, ok}}, 10, 1},
		{"both SETs applied, settled out of order",
			[]int{10, 20}, []settle{{1, ok}, {0, ok}}, 20, 1},
		{"a DEL admitted before the SET it removes, settled after it",
			[]int{0, 10}, []settle{{1, ok}, {0, deleted}}, 0, 0},
		{"a DEL admitted before the SET it removes, settled before it",
			[]int{0, 10}, []settle{{0, deleted}, {1, ok}}, 0, 0},
	} {
		tn, err := New(Config{}).Register("q", "s", Quotas{MaxBytes: 100, MaxKeys: 2})
		if err != nil {
			t.Fatal(err)
		}
		charges := make([]Charge, len(c.ops))
		for i, n := range c.ops {
			if n == 0 {
				charges[i] = tn.ChargeDel("k")
			} else if charges[i], err = tn.ChargeSet("k", n); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range c.settles {
			charges[s.op].Settle(s.reply)
		}
		if b, k := tn.Usage(); b != c.bytes || k != c.keys {
			t.Errorf("%s: usage (%d, %d), the store holds (%d, %d)", c.name, b, k, c.bytes, c.keys)
		}
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
