package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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

// Charge is an admitted write's pending effect on a tenant's budgets, carried
// with the request and settled with the store's reply. The zero Charge
// settles nothing.
type Charge struct {
	t       *Tenant
	key     string
	size    *uint32 // the entry a SET charged; nil for a DEL
	old     uint32  // its size before the SET
	valLen  uint32  // and the SET's
	existed bool
}

// ChargeDel returns the charge of a DEL of key: nothing until the store
// confirms the key went.
func (t *Tenant) ChargeDel(key string) Charge { return Charge{t: t, key: key} }

var delOneReply = []byte(":1\r\n")

// Settle commits or rolls back the charge on the store's reply: a DEL that
// removed its key credits the budgets, a SET the store refused is undone.
func (c Charge) Settle(resp []byte) {
	switch {
	case c.t == nil:
	case c.size == nil:
		if bytes.Equal(resp, delOneReply) {
			c.t.SettleDel(c.key)
		}
	case len(resp) > 0 && resp[0] == '-':
		c.Undo()
	}
}

// ChargeSet admits a SET of valLen bytes against the byte and key budgets,
// charging optimistically. The charge stands unless undone: Settle undoes it
// if the store rejects the write (full segment, shard error).
func (t *Tenant) ChargeSet(key string, valLen int) (Charge, error) {
	t.mu.Lock()
	size, existed := t.sizes[key]
	var old uint32
	if existed {
		old = *size
	}
	newBytes := t.bytes - uint64(old) + uint64(valLen)
	newKeys := t.keys
	if !existed {
		newKeys++
	}
	var err error
	switch {
	case t.quotas.MaxBytes > 0 && newBytes > t.quotas.MaxBytes:
		err = fmt.Errorf("%w: tenant %q over byte budget %d", ErrOverQuota, t.id, t.quotas.MaxBytes)
	case t.quotas.MaxKeys > 0 && newKeys > t.quotas.MaxKeys:
		err = fmt.Errorf("%w: tenant %q over key budget %d", ErrOverQuota, t.id, t.quotas.MaxKeys)
	}
	if err != nil {
		t.mu.Unlock()
		t.ctr.QuotaRejections.Add(1)
		return Charge{}, err
	}
	t.bytes, t.keys = newBytes, newKeys
	if existed {
		*size = uint32(valLen)
	} else {
		// The map keeps a copy of the key: the caller's is cut from a
		// connection's fill, which the entry would keep whole for as long as
		// the key lives. Writing through the pointer after that never hands
		// the map the caller's string again.
		size = new(uint32)
		*size = uint32(valLen)
		t.sizes[strings.Clone(key)] = size
	}
	t.mu.Unlock()
	return Charge{t: t, key: key, size: size, old: old, valLen: uint32(valLen), existed: existed}, nil
}

// Undo reverses a SET's charge.
func (c Charge) Undo() {
	t := c.t
	t.mu.Lock()
	t.bytes += uint64(c.old) - uint64(c.valLen)
	if c.existed {
		*c.size = c.old
	} else {
		t.keys--
		delete(t.sizes, c.key)
	}
	t.mu.Unlock()
}

// SettleDel credits a confirmed DEL back to the budgets.
func (t *Tenant) SettleDel(key string) {
	t.mu.Lock()
	if size, ok := t.sizes[key]; ok {
		t.bytes -= uint64(*size)
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
