package server

import (
	"strings"
	"testing"

	"spacejmp/internal/redis"
	"spacejmp/internal/tenant"
)

// FuzzAuthCommand throws arbitrary commands at the tenant admission layer —
// the code every untrusted connection byte reaches first — the way the
// connection reader does: resolve against the command table, then AUTH goes
// to auth and everything the reader would submit goes through admit.
// Invariants: neither panics, data commands without an identity are always
// answered inline with -NOPERM, every inline reply is one well-formed RESP
// reply, and after a successful AUTH every plain key arg is rewritten into
// the tenant's view so the prefix round-trips through SplitTenantKey.
func FuzzAuthCommand(f *testing.F) {
	// Every table row at its minimum arity, the name in mixed case with a
	// cross-view key, plus shapes the table cannot suggest.
	for _, c := range redis.Commands() {
		f.Add(c.Name, "k", "v", uint8(c.MinArgs))
		f.Add(strings.ToLower(c.Name[:1])+c.Name[1:], "t:t1:k", "t:t0:b", uint8(3))
	}
	f.Add("AUTH", "t0", "s0", uint8(3))
	f.Add("AUTH", "", "", uint8(3))
	f.Add("DEL", "t:zz:x", "", uint8(2))
	f.Add("get", "t:", "", uint8(2))
	f.Add("Set", "t::", "t:t0", uint8(3))
	f.Fuzz(func(t *testing.T, a0, a1, a2 string, n uint8) {
		args := []string{a0, a1, a2}[:1+n%3]
		cmd := redis.Lookup(args)
		reg, err := tenant.NewDemo(2, tenant.Config{}, tenant.Quotas{})
		if err != nil {
			t.Fatal(err)
		}

		checkInline := func(resp []byte, tag string) {
			if resp == nil {
				return
			}
			if _, _, err := redis.DecodeReply(resp); err != nil {
				// Error replies decode to a ReplyError; that is well-formed.
				var re redis.ReplyError
				if !asReplyError(err, &re) {
					t.Fatalf("%s: inline reply %q is not one well-formed RESP reply: %v", tag, resp, err)
				}
			}
		}

		ct := newConnTenant(reg)
		if cmd.Op == redis.OpAuth {
			resp := ct.auth(args)
			if resp == nil {
				t.Fatalf("AUTH %q produced no inline reply", args)
			}
			checkInline(resp, "auth")
			return
		}
		if cmd.By == redis.ByNobody || cmd.By == redis.ByConn {
			return // the reader answers these itself; admit never sees them
		}

		// Pass 1: unauthenticated. A data command must die inline with the
		// typed denial; nothing else may slip through to a backend.
		unauth := append([]string(nil), args...)
		inline, charge := ct.admit(cmd, unauth, new(redis.Arena))
		checkInline(inline, "unauthenticated")
		if cmd.By == redis.ByStore {
			if !strings.HasPrefix(string(inline), "-NOPERM") {
				t.Fatalf("unauthenticated %q: inline reply %q, want -NOPERM", args, inline)
			}
			if charge != (tenant.Charge{}) {
				t.Fatalf("unauthenticated %q produced a quota charge", args)
			}
		}

		// Pass 2: authenticated as t0. Plain keys must be rewritten into
		// t0's view and round-trip through SplitTenantKey; explicit
		// cross-view keys are either denied inline or left untouched.
		if resp := ct.auth([]string{"AUTH", tenant.DemoID(0), tenant.DemoSecret(0)}); string(resp) != "+OK\r\n" {
			t.Fatalf("demo AUTH failed: %q", resp)
		}
		authed := append([]string(nil), args...)
		inline, charge = ct.admit(cmd, authed, new(redis.Arena))
		checkInline(inline, "authenticated")
		if inline == nil {
			// Admitted (a denial may leave args partially rewritten, but
			// then nothing reaches a backend and there is nothing to hold).
			rewritten := cmd.Keys(authed)
			for i, orig := range cmd.Keys(args) {
				if id, rest, wasCross := redis.SplitTenantKey(orig); wasCross {
					if rewritten[i] != orig {
						t.Fatalf("cross-view key %q (-> %s/%s) was rewritten to %q", orig, id, rest, rewritten[i])
					}
					continue
				}
				if want := redis.TenantKey(tenant.DemoID(0), orig); rewritten[i] != want {
					t.Fatalf("key %q rewritten to %q, want %q", orig, rewritten[i], want)
				}
				gotID, gotRest, ok := redis.SplitTenantKey(rewritten[i])
				if !ok || gotID != tenant.DemoID(0) || gotRest != orig {
					t.Fatalf("rewritten key %q does not round-trip: (%q, %q, %v)", rewritten[i], gotID, gotRest, ok)
				}
			}
		}
		// Settling must tolerate any reply shape the backend could
		// produce, including errors and empty slices.
		charge.Settle(nil)
	})
}

func asReplyError(err error, re *redis.ReplyError) bool {
	e, ok := err.(redis.ReplyError)
	if ok {
		*re = e
	}
	return ok
}
