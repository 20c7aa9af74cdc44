package stats

import "sync/atomic"

// TenantCounters is one tenant's serving activity, indexed by registration
// order (Sink.Tenant): the tenant holds its row and counts into it, so the
// admin surface shows per-tenant commands, payload bytes, quota rejections
// and capability denials without touching the registry's own locks.
type TenantCounters struct {
	Commands        atomic.Uint64
	Bytes           atomic.Uint64
	QuotaRejections atomic.Uint64
	CapDenials      atomic.Uint64
}
