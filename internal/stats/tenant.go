package stats

import "sync/atomic"

// Tenant-layer counters. Multi-tenant serving gives every RESP command an
// identity dimension; the sink keeps one counter block per registered
// tenant (indexed by registration order, the tenant registry's index) so
// the admin surface can show per-tenant commands, payload bytes, quota
// rejections, and capability denials without touching the registry's own
// locks. Same contract as the rest of the sink: nil-safe and atomic.

// TenantCounters is one tenant's serving activity.
type TenantCounters struct {
	Commands        atomic.Uint64
	Bytes           atomic.Uint64
	QuotaRejections atomic.Uint64
	CapDenials      atomic.Uint64
}

// InstallTenants grows the per-tenant counter table to hold at least n
// tenants; tenants register incrementally and keep their totals. Safe on nil.
func (s *Sink) InstallTenants(n int) {
	if s != nil {
		s.live.Tenants.atLeast(n)
	}
}

func (s *Sink) tenant(i int) *TenantCounters {
	if s == nil {
		return nil
	}
	return s.live.Tenants.row(i)
}

// TenantCommand records one admitted command of n payload bytes for the
// tenant at index i. Safe on nil.
func (s *Sink) TenantCommand(i int, n uint64) {
	if t := s.tenant(i); t != nil {
		t.Commands.Add(1)
		t.Bytes.Add(n)
	}
}

// TenantQuotaRejected records one quota rejection at admission. Safe on nil.
func (s *Sink) TenantQuotaRejected(i int) {
	if t := s.tenant(i); t != nil {
		t.QuotaRejections.Add(1)
	}
}

// TenantDenied records one capability denial (a cross-view address the
// tenant held no capability for). Safe on nil.
func (s *Sink) TenantDenied(i int) {
	if t := s.tenant(i); t != nil {
		t.CapDenials.Add(1)
	}
}
