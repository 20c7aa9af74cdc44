package server

import (
	"bytes"

	"spacejmp/internal/caps"
	"spacejmp/internal/redis"
	"spacejmp/internal/tenant"
)

// Multi-tenant admission (paper §4.2). When the server carries a tenant
// registry, every connection starts unauthenticated: data commands are
// denied until AUTH <tenant> <secret> binds the connection to a tenant.
// From then on the connection addresses keys inside that tenant's view —
// plain keys are qualified with the tenant's prefix before they reach the
// backend, so the physical keyspace the backend shards, replicates, and
// migrates is already view-scoped and both the VAS-switch path and the
// urpc path resolve keys inside the caller's view with no extra state.
//
// A key written literally as "t:<other>:<key>" addresses another tenant's
// view. That is the segment attach the capability system guards: the
// caller's cspace must hold capabilities for the target view's VAS and
// segment objects, or the command dies here with a typed -NOPERM — before
// any store lookup, so a denial is never a missing-key miss. Successful
// attaches are cached per connection keyed by the registry generation;
// grants and revokes bump the generation and force re-checks, which is how
// a revocation takes effect on live connections.
//
// All of this runs in the connection reader goroutine — registry state is
// plain Go, never simulated state, so the worker-core monopoly holds.

// connTenant is one connection's tenant session.
type connTenant struct {
	reg *tenant.Registry
	t   *tenant.Tenant // nil until AUTH succeeds

	// attached caches successful view attachments: (target, rights) →
	// registry generation at check time.
	attached map[attachKey]uint64
}

type attachKey struct {
	target string
	want   caps.Right
}

func newConnTenant(reg *tenant.Registry) *connTenant {
	if reg == nil {
		return nil
	}
	return &connTenant{reg: reg, attached: map[attachKey]uint64{}}
}

var delOneReply = []byte(":1\r\n")

// admit runs tenant admission for one resolved command (cmd is
// redis.Lookup(args), arity already checked), rewriting key args into the
// caller's view in place. A non-nil inline reply answers the command at
// admission (denial, quota rejection) and nothing reaches the backend.
// Otherwise settle — if non-nil — must be called with the reply bytes once
// the backend finishes, to commit or roll back the quota charge.
func (ct *connTenant) admit(cmd *redis.Command, args []string) (inline []byte, settle func([]byte)) {
	if cmd.By != redis.ByStore {
		// Store-less commands (PING, ECHO) and admin commands (CLUSTER)
		// carry no keys and pass through unauthenticated.
		return nil, nil
	}
	if ct.t == nil {
		return redis.EncodeNoPerm("authentication required"), nil
	}
	want := caps.RightRead
	if cmd.Write {
		want = caps.RightWrite
	}
	keys := cmd.Keys(args)
	for i, k := range keys {
		if id, _, ok := redis.SplitTenantKey(k); ok {
			// Explicitly cross-view address: the §4.2 capability check.
			if err := ct.attach(id, want); err != nil {
				return redis.EncodeNoPerm(err.Error()), nil
			}
		} else {
			keys[i] = redis.TenantKey(ct.t.ID(), k)
		}
	}
	// Quota admission: the caller pays the command-rate token; byte and
	// key budgets bill the view the key lives in (its owner admitted the
	// bytes into its segments, whoever wrote them).
	if err := ct.t.TakeToken(); err != nil {
		return redis.EncodeQuota(err.Error()), nil
	}
	var payload int
	for _, a := range args[1:] {
		payload += len(a)
	}
	ct.t.Count(payload)
	if !cmd.Write {
		return nil, nil
	}
	billed := ct.t
	key := keys[0]
	if owner, _, ok := redis.SplitTenantKey(key); ok && owner != ct.t.ID() {
		if t, found := ct.reg.Lookup(owner); found {
			billed = t
		}
	}
	if cmd.Value == 0 {
		// A delete credits the view once the store confirms the key went.
		return nil, func(resp []byte) {
			if bytes.Equal(resp, delOneReply) {
				billed.SettleDel(key)
			}
		}
	}
	undo, err := billed.ChargeSet(key, len(args[cmd.Value]))
	if err != nil {
		return redis.EncodeQuota(err.Error()), nil
	}
	return nil, func(resp []byte) {
		if len(resp) > 0 && resp[0] == '-' {
			undo() // the store rejected the write; release the charge
		}
	}
}

// auth handles AUTH <tenant> <secret>, binding the connection's identity.
func (ct *connTenant) auth(args []string) []byte {
	t, err := ct.reg.Authenticate(args[1], args[2])
	if err != nil {
		return redis.EncodeNoPerm("invalid tenant credentials")
	}
	ct.t = t
	// A re-AUTH switches identity; the previous identity's attachments
	// must not carry over.
	ct.attached = map[attachKey]uint64{}
	return redis.EncodeSimple("OK")
}

// attach authorizes addressing target's view, consulting the per-connection
// cache first. Cache entries are keyed by registry generation, so a grant
// or revoke anywhere invalidates every cached attachment at once.
func (ct *connTenant) attach(target string, want caps.Right) error {
	k := attachKey{target, want}
	gen := ct.reg.Generation()
	if g, ok := ct.attached[k]; ok && g == gen {
		return nil
	}
	if err := ct.reg.Attach(ct.t, target, want); err != nil {
		delete(ct.attached, k)
		return err
	}
	ct.attached[k] = gen
	return nil
}
