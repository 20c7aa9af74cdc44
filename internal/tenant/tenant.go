// Package tenant implements multi-tenant serving over the multi-VAS store:
// the paper's protection story (§4.2, lockable segments + ACLs on named
// VASes) turned into a serving feature. A Registry holds one entry per
// tenant; registering a tenant composes its view — a per-tenant VAS object
// plus one segment object per shard store, named through the tenant-scoped
// names in internal/redis ("t:<id>:cluster.s0.data", ...) — and mints the
// tenant a capability set over that view through internal/caps, the
// Barrelfish path: the registry's root cspace owns every view object and
// Kernel.Mint derives each tenant's read/write/grant subset from it.
//
// Enforcement happens at admission in the serving layer. A connection
// authenticates (AUTH <tenant> <secret>), its keys are qualified with the
// tenant's view prefix, and any explicitly cross-view address must pass a
// capability check over the target view's VAS and segment objects — a
// tenant holding no capability gets a typed -NOPERM denial, never a
// missing-key miss. Tenants can share views the Barrelfish way: Grant
// mints a subset of the owner's rights into another tenant's cspace, and
// Revoke transitively invalidates every grant minted from the owner's
// capabilities.
package tenant

import (
	"crypto/subtle"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/caps"
	"spacejmp/internal/core"
	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
)

// Config sizes a registry.
type Config struct {
	// Nodes is the number of shard stores a tenant's view spans: the
	// cluster's node count. Defaults to 1.
	Nodes int
	// Stats receives per-tenant counters, one row per tenant in registration
	// order. With nil each tenant counts into a block of its own, unread.
	Stats *stats.Sink
	// Now overrides the token-bucket clock (tests). Defaults to time.Now.
	Now func() time.Time
}

// Registry is the tenant directory: credentials, capability spaces, quota
// state, and per-tenant accounting indices.
type Registry struct {
	kernel *caps.Kernel
	root   *caps.CSpace // owner capabilities for every view object
	nodes  int
	sink   *stats.Sink
	now    func() time.Time

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []string // registration order, for stats indices and listings

	gen atomic.Uint64 // bumped on register/grant/revoke; connections re-check cached views
}

// New creates an empty registry.
func New(cfg Config) *Registry {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	// The kernel only mints and revokes object capabilities here — it never
	// allocates RAM — so it needs no physical memory behind it.
	return &Registry{
		kernel:  caps.NewKernel(nil),
		root:    caps.NewCSpace(),
		nodes:   cfg.Nodes,
		sink:    cfg.Stats,
		now:     cfg.Now,
		tenants: map[string]*Tenant{},
	}
}

// Tenant is one registered tenant: its credentials, its capability space,
// and its quota state. Obtained from Authenticate or Lookup; safe for
// concurrent use by many connections.
type Tenant struct {
	reg    *Registry
	id     string
	secret string
	ctr    *stats.TenantCounters // this tenant's row of the sink's table
	cspace *caps.CSpace
	quotas Quotas

	// View object identities (this tenant's own view).
	viewID uint64   // TypeVAS object
	segIDs []uint64 // TypeSegment objects, one per shard store

	// Slots of this tenant's own-view capabilities in its cspace — the
	// mint sources for Grant and the revocation anchors for Revoke.
	ownSlots []caps.Slot

	// Quota state, under mu.
	mu     sync.Mutex
	bytes  uint64            // admitted live value bytes
	keys   uint64            // admitted live keys
	sizes  map[string]uint32 // per-key admitted value size
	tokens float64           // command-rate bucket level
	filled time.Time         // last bucket refill
}

// ID returns the tenant's identifier.
func (t *Tenant) ID() string { return t.id }

// viewObjectID names a view object in capability space: the FNV-64a of its
// tenant-scoped registry name.
func viewObjectID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// baseNames returns the shared store instance node i's view slice is
// composed over.
func (r *Registry) baseNames(i int) redis.Names {
	if r.nodes == 1 {
		return redis.DefaultNames
	}
	return redis.ShardNames(i)
}

// Register creates a tenant: a fresh cspace, one VAS view object plus one
// segment object per shard store registered in the root cspace with full
// rights, and a read/write/grant capability set minted from the root into
// the tenant's cspace. The id must be usable inside a key prefix: no
// colons, spaces, or control bytes.
func (r *Registry) Register(id, secret string, q Quotas) (*Tenant, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	q = q.withDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[id]; ok {
		return nil, fmt.Errorf("%w: tenant %q already registered", core.ErrExists, id)
	}
	t := &Tenant{
		reg:    r,
		id:     id,
		secret: secret,
		ctr:    new(stats.TenantCounters), // its own, unless the registry has a sink (below)
		cspace: caps.NewCSpace(),
		quotas: q,
		viewID: viewObjectID(redis.TenantKey(id, "view")),
		sizes:  map[string]uint32{},
		tokens: q.Burst,
		filled: r.now(),
	}
	// Compose the view: register its objects in the root cspace (owner
	// capabilities, full rights) and mint the tenant's own set from them.
	mint := func(kind caps.Type, objID uint64) error {
		slot := r.root.Insert(&caps.Capability{Type: kind, Rights: caps.RightsAll, ObjID: objID})
		got, err := r.kernel.Mint(r.root, slot, t.cspace, caps.RightRead|caps.RightWrite|caps.RightGrant)
		if err != nil {
			return err
		}
		t.ownSlots = append(t.ownSlots, got)
		return nil
	}
	if err := mint(caps.TypeVAS, t.viewID); err != nil {
		return nil, err
	}
	for i := 0; i < r.nodes; i++ {
		segID := viewObjectID(redis.TenantNames(id, r.baseNames(i)).Seg)
		t.segIDs = append(t.segIDs, segID)
		if err := mint(caps.TypeSegment, segID); err != nil {
			return nil, err
		}
	}
	r.tenants[id] = t
	if r.sink != nil {
		t.ctr = r.sink.Tenant(len(r.order))
	}
	r.order = append(r.order, id)
	r.gen.Add(1)
	return t, nil
}

func checkID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: tenant: empty id", core.ErrInvalid)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c == ':' || c <= ' ' || c == 0x7f {
			return fmt.Errorf("%w: tenant: id %q contains %q", core.ErrInvalid, id, c)
		}
	}
	return nil
}

// Authenticate resolves credentials to a tenant. Both the unknown-id and
// wrong-secret paths return the same capability-denial error (wrapping
// core.ErrDenied) after a constant-time compare, so replies don't leak
// which half was wrong.
func (r *Registry) Authenticate(id, secret string) (*Tenant, error) {
	r.mu.RLock()
	t := r.tenants[id]
	r.mu.RUnlock()
	against := ""
	if t != nil {
		against = t.secret
	}
	if subtle.ConstantTimeCompare([]byte(secret), []byte(against)) != 1 || t == nil {
		return nil, fmt.Errorf("%w: tenant: invalid credentials", core.ErrDenied)
	}
	return t, nil
}

// Lookup resolves a tenant id without authenticating.
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Generation returns the registry's change counter. Connections cache
// resolved view attachments keyed by this; any register, grant, or revoke
// bumps it and forces re-checks.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Attach authorizes caller to attach target tenant's view with the given
// rights: the caller's cspace must hold a live capability for the target's
// VAS object and for every one of its segment objects, each allowing want.
// This is the §4.2 check run on every segment attach — an address outside
// the caller's capability set fails here, before any store lookup, so
// cross-tenant access is a typed denial rather than a miss. The error
// wraps core.ErrDenied.
func (r *Registry) Attach(caller *Tenant, target string, want caps.Right) error {
	r.mu.RLock()
	to := r.tenants[target]
	r.mu.RUnlock()
	deny := func() error {
		caller.ctr.CapDenials.Add(1)
		return fmt.Errorf("%w: tenant %q holds no capability for tenant %q's view (rights %b)",
			core.ErrDenied, caller.id, target, want)
	}
	if to == nil {
		// An unregistered target view is indistinguishable from one the
		// caller has no capability for.
		return deny()
	}
	find := func(kind caps.Type, objID uint64) bool {
		_, ok := caller.cspace.Find(func(c *caps.Capability) bool {
			return c.Type == kind && c.ObjID == objID && c.Rights.Allows(want)
		})
		return ok
	}
	if !find(caps.TypeVAS, to.viewID) {
		return deny()
	}
	for _, segID := range to.segIDs {
		if !find(caps.TypeSegment, segID) {
			return deny()
		}
	}
	return nil
}

// Grant mints a subset of the owner's view capabilities into another
// tenant's cspace — the Barrelfish way of sharing a view (§4.2). The mint
// sources are the owner's own capabilities, so the kernel enforces that the
// owner holds grant right and that rights is a subset; the minted children
// hang off the owner's capabilities and die with Revoke.
func (r *Registry) Grant(owner, to string, rights caps.Right) error {
	r.mu.RLock()
	from, dst := r.tenants[owner], r.tenants[to]
	r.mu.RUnlock()
	if from == nil || dst == nil {
		return fmt.Errorf("%w: tenant: unknown tenant in grant %q -> %q", core.ErrNotFound, owner, to)
	}
	for _, slot := range from.ownSlots {
		if _, err := r.kernel.Mint(from.cspace, slot, dst.cspace, rights); err != nil {
			return err
		}
	}
	r.gen.Add(1)
	return nil
}

// Revoke transitively invalidates every capability minted from the owner's
// view capabilities — all cross-tenant grants on its view, including
// re-grants — and bumps the generation so cached attachments re-check.
func (r *Registry) Revoke(owner string) error {
	r.mu.RLock()
	from := r.tenants[owner]
	r.mu.RUnlock()
	if from == nil {
		return fmt.Errorf("%w: tenant: unknown tenant %q", core.ErrNotFound, owner)
	}
	for _, slot := range from.ownSlots {
		if err := r.kernel.Revoke(from.cspace, slot); err != nil {
			return err
		}
	}
	r.gen.Add(1)
	return nil
}

// Info is one tenant's listing for the admin surface.
type Info struct {
	ID     string `json:"id"`
	Quotas Quotas `json:"quotas"`
	Bytes  uint64 `json:"bytes"` // admitted live value bytes
	Keys   uint64 `json:"keys"`  // admitted live keys
}

// List returns every tenant in registration order.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.order))
	for _, id := range r.order {
		t := r.tenants[id]
		b, k := t.Usage()
		out = append(out, Info{ID: id, Quotas: t.quotas, Bytes: b, Keys: k})
	}
	return out
}

// IDs returns every tenant id in registration order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// DemoID and DemoSecret name the i'th tenant of a demo registry — the
// convention the server flags, the load generator, and the chaos runner
// share ("t0"/"s0", "t1"/"s1", ...).
func DemoID(i int) string     { return fmt.Sprintf("t%d", i) }
func DemoSecret(i int) string { return fmt.Sprintf("s%d", i) }

// NewDemo builds a registry with n demo tenants sharing one quota config —
// what `spacejmp-server -tenants n` and the chaos runner boot.
func NewDemo(n int, cfg Config, q Quotas) (*Registry, error) {
	r := New(cfg)
	for i := 0; i < n; i++ {
		if _, err := r.Register(DemoID(i), DemoSecret(i), q); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// String renders a terse tenant list for logs.
func (r *Registry) String() string {
	return "tenants[" + strings.Join(r.IDs(), " ") + "]"
}
