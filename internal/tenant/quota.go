package tenant

import (
	"errors"
	"fmt"
)

// Quotas bounds one tenant's footprint. Zero values mean unlimited.
type Quotas struct {
	// MaxBytes caps the tenant's admitted live value bytes in the shared
	// segments.
	MaxBytes uint64 `json:"max_bytes,omitempty"`
	// MaxKeys caps the tenant's admitted live key count.
	MaxKeys uint64 `json:"max_keys,omitempty"`
	// Rate is the sustained command rate (commands/sec) through a token
	// bucket; Burst is the bucket depth (defaults to Rate).
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
}

func (q Quotas) withDefaults() Quotas {
	if q.Rate > 0 && q.Burst <= 0 {
		q.Burst = q.Rate
	}
	return q
}

// ErrOverQuota is the admission rejection: the command would push the
// tenant past a configured budget. The wrapping error says which one.
var ErrOverQuota = errors.New("tenant: over quota")

// TakeToken admits one command through the tenant's rate bucket. Quota
// rejections are counted in the tenant's stats block.
func (t *Tenant) TakeToken() error {
	if t.quotas.Rate <= 0 {
		return nil
	}
	t.mu.Lock()
	now := t.reg.now()
	t.tokens += now.Sub(t.filled).Seconds() * t.quotas.Rate
	if t.tokens > t.quotas.Burst {
		t.tokens = t.quotas.Burst
	}
	t.filled = now
	ok := t.tokens >= 1
	if ok {
		t.tokens--
	}
	t.mu.Unlock()
	if !ok {
		t.ctr.QuotaRejections.Add(1)
		return fmt.Errorf("%w: tenant %q over command rate %.0f/s", ErrOverQuota, t.id, t.quotas.Rate)
	}
	return nil
}

// ChargeSet admits a SET of valLen bytes against the byte and key budgets,
// charging optimistically. The returned undo reverses the charge and must
// be called if the store rejects the write (full segment, shard error);
// on success the charge stands and undo is discarded.
func (t *Tenant) ChargeSet(key string, valLen int) (undo func(), err error) {
	t.mu.Lock()
	old, existed := t.sizes[key]
	newBytes := t.bytes - uint64(old) + uint64(valLen)
	newKeys := t.keys
	if !existed {
		newKeys++
	}
	switch {
	case t.quotas.MaxBytes > 0 && newBytes > t.quotas.MaxBytes:
		err = fmt.Errorf("%w: tenant %q over byte budget %d", ErrOverQuota, t.id, t.quotas.MaxBytes)
	case t.quotas.MaxKeys > 0 && newKeys > t.quotas.MaxKeys:
		err = fmt.Errorf("%w: tenant %q over key budget %d", ErrOverQuota, t.id, t.quotas.MaxKeys)
	}
	if err != nil {
		t.mu.Unlock()
		t.ctr.QuotaRejections.Add(1)
		return nil, err
	}
	t.bytes, t.keys = newBytes, newKeys
	t.sizes[key] = uint32(valLen)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.bytes += uint64(old) - uint64(valLen)
		if existed {
			t.sizes[key] = old
		} else {
			t.keys--
			delete(t.sizes, key)
		}
		t.mu.Unlock()
	}, nil
}

// SettleDel credits a confirmed DEL back to the budgets.
func (t *Tenant) SettleDel(key string) {
	t.mu.Lock()
	if old, ok := t.sizes[key]; ok {
		t.bytes -= uint64(old)
		t.keys--
		delete(t.sizes, key)
	}
	t.mu.Unlock()
}

// Count records one admitted command of n payload bytes in the tenant's
// stats block.
func (t *Tenant) Count(n int) {
	t.ctr.Commands.Add(1)
	t.ctr.Bytes.Add(uint64(n))
}

// Usage returns the tenant's admitted live bytes and keys.
func (t *Tenant) Usage() (bytes, keys uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes, t.keys
}
