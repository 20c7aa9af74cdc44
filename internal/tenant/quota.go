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

// entry is one key's share of a tenant's budgets. Admission charges the
// latest SET admitted on the key at once; what the store holds is learnt from
// the replies as they settle, the latest-admitted write the store applied
// taking precedence — one connection's writes reach the store, and its
// replies go out, in the order they were admitted. While charges on the key
// are unsettled the budgets keep what was admitted; when the last of them
// settles they are set to what the store holds, and a key it no longer holds
// leaves the map.
type entry struct {
	size     uint32 // what the budgets are charged for the key
	stored   uint32 // what the store holds, as the settled replies say
	held     bool   // whether it holds the key at all
	written  uint64 // the admission number of the write stored and held come from
	admitted uint64 // charges admitted on the key, which numbers them
	pending  uint32 // of those, the ones not yet settled
}

// Charge is an admitted write's pending effect on a tenant's budgets, carried
// with the request and settled with the store's reply. The zero Charge
// settles nothing.
type Charge struct {
	t      *Tenant
	key    string
	e      *entry // nil for a DEL of a key the tenant was charged nothing for
	n      uint64 // the charge's admission number on e
	valLen uint32 // a SET's value length
	del    bool
}

// ChargeDel returns the charge of a DEL of key: nothing until the store
// confirms the key went.
func (t *Tenant) ChargeDel(key string) Charge {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := Charge{t: t, key: key, del: true}
	if e := t.sizes[key]; e != nil {
		c.e, c.n = e, e.admit()
	}
	return c
}

// admit numbers a charge on e and counts it unsettled.
func (e *entry) admit() uint64 {
	e.admitted++
	e.pending++
	return e.admitted
}

var delOneReply = []byte(":1\r\n")

// Settle commits or rolls back the charge on the store's reply: a DEL that
// removed its key credits the budgets, a SET the store refused is undone —
// as soon as no other charge on the key is unsettled.
func (c Charge) Settle(resp []byte) {
	if c.t == nil {
		return
	}
	applied := len(resp) == 0 || resp[0] != '-'
	if c.del {
		applied = bytes.Equal(resp, delOneReply)
	}
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	e, n := c.e, c.n
	switch {
	case e != nil:
		e.pending--
	case !applied:
		return
	default:
		// A DEL admitted before the key was charged removed it, so it ran
		// behind a SET admitted since: it counts as the latest write yet.
		if e = t.sizes[c.key]; e == nil {
			return
		}
		n = e.admitted
	}
	if applied && (n > e.written || c.e == nil) {
		e.stored, e.held, e.written = c.valLen, !c.del, n
	}
	if e.pending > 0 {
		return
	}
	t.bytes = t.bytes - uint64(e.size) + uint64(e.stored)
	e.size = e.stored
	if !e.held {
		t.keys--
		delete(t.sizes, c.key)
	}
}

// ChargeSet admits a SET of valLen bytes against the byte and key budgets,
// charging optimistically. The charge stands unless undone: Settle undoes it
// if the store rejects the write (full segment, shard error).
func (t *Tenant) ChargeSet(key string, valLen int) (Charge, error) {
	t.mu.Lock()
	e, existed := t.sizes[key]
	var old uint32
	if existed {
		old = e.size
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
	if !existed {
		// The map keeps a copy of the key: the caller's is cut from a
		// connection's fill, which the entry would keep whole for as long as
		// the key lives.
		e = &entry{}
		t.sizes[strings.Clone(key)] = e
	}
	e.size = uint32(valLen)
	n := e.admit()
	t.mu.Unlock()
	return Charge{t: t, key: key, e: e, n: n, valLen: uint32(valLen)}, nil
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
