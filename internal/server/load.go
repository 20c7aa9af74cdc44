package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
	"spacejmp/internal/tenant"
)

// Closed-loop load generator: N connections, each keeping a fixed pipeline
// of commands in flight — write a batch, read the batch's replies, repeat.
// Values are deterministic functions of their key (and deliberately contain
// CR/LF and NUL bytes), so every GET reply is verifiable without any shared
// bookkeeping between connections. cmd/spacejmp-load wraps this; the
// integration tests drive it directly.

// LoadConfig parameterizes one load run. The JSON keys are a chaos scenario
// file's "load" block (chaos.LoadSpec embeds this struct): a knob is declared
// here and nowhere else.
type LoadConfig struct {
	Addr       string `json:"-"`
	Conns      int    `json:"conns,omitempty"`
	Pipeline   int    `json:"pipeline,omitempty"`
	Requests   int    `json:"requests,omitempty"`    // commands per connection
	SetPercent int    `json:"set_percent,omitempty"` // portion of SETs in the mix, 0..100
	// MGetPercent is the portion of multi-key GETs in the mix, 0..100
	// (carved out of the GET share; SetPercent+MGetPercent ≤ 100). MGETs
	// are what separates the cluster's two serving modes: on the shared-VAS
	// path extra keys cost memory accesses, over urpc they cost transfers.
	MGetPercent int   `json:"mget_percent,omitempty"`
	MGetKeys    int   `json:"mget_keys,omitempty"`  // keys per MGET
	Keys        int   `json:"keys,omitempty"`       // keyspace size
	ValueSize   int   `json:"value_size,omitempty"` // bytes per value
	Seed        int64 `json:"-"`
	// Reconnect makes a connection survive transport failure: instead of
	// aborting the run, it counts a disconnect, redials, and keeps working
	// through its remaining quota (abandoning the in-flight batch). This is
	// what lets the chaos scenarios sever connections — server.conn.drop,
	// server.accept — while still holding the run to zero verification
	// failures.
	Reconnect bool `json:"reconnect,omitempty"`
	// Tenants runs the load multi-tenant against a server booted with a
	// demo registry: connection i authenticates as demo tenant i%Tenants
	// (re-authenticating after every redial) and works its own view of the
	// keyspace. Values are derived from the tenant-qualified key, so
	// per-tenant keyspaces verify independently and any cross-view bleed is a
	// value mismatch, not a silent match.
	Tenants int `json:"tenants,omitempty"`
	// CrossCheckEvery replaces every n'th command on a connection with a
	// probe GET explicitly addressed at another tenant's view. The only
	// correct answer is a -NOPERM denial; any other reply — nil included —
	// means the capability check did not fire and counts as a cross-tenant
	// leak (and a mismatch). 0 takes the default (32); <0 disables probes.
	// Probes need at least two tenants.
	CrossCheckEvery int `json:"cross_check_every,omitempty"`
	// StaleReads opts every connection into follower reads (READONLY is
	// sent after each (re)dial, after AUTH) and makes every 8th command a
	// staleness probe: each connection owns one probe key it SETs with
	// monotonically versioned values, and each probe GET must come back as
	// either a version no older than StaleBound or the typed -STALE
	// refusal. A version older than the bound served without -STALE is a
	// StaleViolation — the server broke its bounded-staleness contract
	// silently, which is the one failure mode follower reads must not have.
	StaleReads bool `json:"stale_reads,omitempty"`
	// StaleBound is the verifying staleness bound for probe GETs. Set it to
	// the server's configured bound plus shipping slack; a violation is
	// only counted when a probe returns a version superseded earlier than
	// this long ago. 0 defaults to 1s.
	StaleBound time.Duration `json:"-"`
	// Deadline sets a per-command deadline budget on every connection: the
	// DEADLINE <ms> prefix command is sent after each (re)dial, so every
	// subsequent command carries the budget and an overloaded server
	// answers typed retryable -DEADLINE refusals (counted as Busy, never
	// as failures) instead of queueing the work. 0 sends nothing — the
	// server's own default applies.
	Deadline time.Duration `json:"-"`
}

// Check refuses a config the load cannot run as written instead of quietly
// running another: SetPercent or MGetPercent outside 0..100 or the two summing
// past 100, a negative count or duration (0 takes the default; only
// CrossCheckEvery gives a negative value a meaning, "disabled"), and
// cross-tenant probes without two tenants to probe between.
func (c LoadConfig) Check() error {
	if c.SetPercent < 0 || c.MGetPercent < 0 || c.SetPercent+c.MGetPercent > 100 {
		return fmt.Errorf("load mix: set_percent %d, mget_percent %d: each 0..100, together at most 100", c.SetPercent, c.MGetPercent)
	}
	for _, f := range []struct {
		name     string
		negative bool
		v        any
	}{
		{"conns", c.Conns < 0, c.Conns}, {"pipeline", c.Pipeline < 0, c.Pipeline},
		{"requests", c.Requests < 0, c.Requests}, {"mget_keys", c.MGetKeys < 0, c.MGetKeys},
		{"keys", c.Keys < 0, c.Keys}, {"value_size", c.ValueSize < 0, c.ValueSize},
		{"tenants", c.Tenants < 0, c.Tenants},
		{"stale_bound", c.StaleBound < 0, c.StaleBound}, {"deadline", c.Deadline < 0, c.Deadline},
	} {
		if f.negative {
			return fmt.Errorf("load %s: negative (%v)", f.name, f.v)
		}
	}
	if c.CrossCheckEvery > 0 && c.Tenants < 2 {
		return fmt.Errorf("load cross_check_every: probes need at least two tenants, not %d", c.Tenants)
	}
	return nil
}

// withDefaults gives every knob left at 0 its default.
func (c LoadConfig) withDefaults() LoadConfig {
	for _, d := range []struct {
		knob *int
		def  int
	}{{&c.Conns, 64}, {&c.Pipeline, 8}, {&c.Requests, 256}, {&c.MGetKeys, 4}, {&c.Keys, 512}, {&c.ValueSize, 64}, {&c.CrossCheckEvery, 32}} {
		if *d.knob == 0 {
			*d.knob = d.def
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StaleBound == 0 {
		c.StaleBound = time.Second
	}
	return c
}

// LoadResult aggregates a run. Its JSON names are the load.* counters a chaos
// scenario bounds.
type LoadResult struct {
	Commands    uint64 `json:"commands"`
	Gets        uint64 `json:"gets"`
	Sets        uint64 `json:"sets"`
	MGets       uint64 `json:"mgets"`
	Busy        uint64 `json:"busy"`        // backpressure rejections ("server busy")
	Errors      uint64 `json:"errors"`      // any other error reply
	Mismatches  uint64 `json:"mismatches"`  // GET replies that matched neither nil nor the key's value
	Disconnects uint64 `json:"disconnects"` // transport failures survived by reconnecting (Reconnect only)
	// Multi-tenant runs only.
	QuotaRejected uint64 `json:"quota_rejected"` // -QUOTA admission rejections (not counted as Errors)
	CrossDenied   uint64 `json:"cross_denied"`   // cross-view probes correctly denied with -NOPERM
	CrossLeaks    uint64 `json:"cross_leaks"`    // cross-view probes answered any other way — isolation failures (also Mismatches)
	// Stale-read runs only.
	StaleProbes     uint64         `json:"stale_probes"`     // probe GETs answered with a value or nil
	StaleRejected   uint64         `json:"stale_rejected"`   // probe GETs correctly refused with -STALE
	StaleViolations uint64         `json:"stale_violations"` // probe GETs that returned a version older than the bound without -STALE
	Elapsed         time.Duration  `json:"elapsed_ns"`
	Latency         stats.HistSnap `json:"latency_ns"` // per-command wall latency
}

// Failures are the counts that fail a verifying run, by their JSON names: a
// reply that did not verify, a cross-view probe answered with data, a version
// older than the staleness bound served without -STALE, and a terminal error
// reply — the one count a chaos scenario may bound instead.
func (r *LoadResult) Failures() map[string]uint64 {
	return map[string]uint64{"mismatches": r.Mismatches, "cross_leaks": r.CrossLeaks,
		"stale_violations": r.StaleViolations, "errors": r.Errors}
}

// WriteText renders the result for a terminal, each line after indent; the
// tenant and stale lines only for a run that counted any.
func (r *LoadResult) WriteText(w io.Writer, indent string) {
	fmt.Fprintf(w, "%scommands  %d (%d GET, %d SET, %d MGET) in %v, %.0f cmd/s\n",
		indent, r.Commands, r.Gets, r.Sets, r.MGets, r.Elapsed.Round(time.Millisecond), r.Throughput())
	fmt.Fprintf(w, "%slatency  mean %.0fns  p50 ≤%dns  p99 ≤%dns  max %dns\n",
		indent, r.Latency.Mean(), r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Max)
	fmt.Fprintf(w, "%sbusy  %d  errors  %d  mismatches  %d  disconnects  %d\n", indent, r.Busy, r.Errors, r.Mismatches, r.Disconnects)
	if r.CrossDenied+r.CrossLeaks+r.QuotaRejected > 0 {
		fmt.Fprintf(w, "%stenant  cross-denied  %d  cross-leaks  %d  quota-rejected  %d\n", indent, r.CrossDenied, r.CrossLeaks, r.QuotaRejected)
	}
	if r.StaleProbes+r.StaleRejected+r.StaleViolations > 0 {
		fmt.Fprintf(w, "%sstale  probes  %d  rejected  %d  violations  %d\n", indent, r.StaleProbes, r.StaleRejected, r.StaleViolations)
	}
}

// Throughput returns commands per second over the run.
func (r *LoadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commands) / r.Elapsed.Seconds()
}

// staleProbeValue encodes version seq of a staleness probe: a
// self-identifying header the verifier parses back, padded to size with the
// same binary pattern ordinary values use.
func staleProbeValue(seq uint64, size int) []byte {
	out := fmt.Appendf(nil, "stale|%d|", seq)
	for i := 0; len(out) < size; i++ {
		out = append(out, "\r\n\x00\xff"[i%4])
	}
	return out
}

// parseStaleProbe recovers the version from a probe value.
func parseStaleProbe(val []byte) (uint64, bool) {
	rest, probe := bytes.CutPrefix(val, []byte("stale|"))
	digits, _, ended := bytes.Cut(rest, []byte("|"))
	if !probe || !ended {
		return 0, false
	}
	seq, err := strconv.ParseUint(string(digits), 10, 64)
	return seq, err == nil
}

// RunLoad drives the server at cfg.Addr and blocks until every connection
// finishes its quota. Transport-level failures abort the run with an error
// unless cfg.Reconnect is set, in which case the connection redials and
// works through its remaining quota; error *replies* (busy, OOM) are
// counted, not fatal either way. A config Check refuses is an error before
// anything dials.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	res := &LoadResult{}
	var lat stats.Hist
	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cfg.Conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = newLoadConn(&cfg, i, res, &lat).run()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Latency = lat.Snap()
	return res, errors.Join(errs...)
}

// What a connection sends. A probe is a GET explicitly addressed at another
// tenant's view; a stale SET writes the next version of the connection's
// staleness probe key, and a stale GET reads it back.
const (
	opGet = iota
	opSet
	opMGet
	opProbe
	opStaleSet
	opStaleGet
)

const (
	staleCheckEvery = 8   // a stale-read run probes every 8th command
	maxReconnects   = 256 // a connection's redials: a hard-down server cannot spin a run forever
)

// sent is a command in flight, with what its reply is judged against.
type sent struct {
	op   int
	keys []string // one key for GET/SET, several for MGET
	seq  uint64   // probe version (opStaleSet)
	at   time.Time
}

// loadConn is one verifying connection of a load run: it draws its commands
// from its own generator, keeps a pipeline of them in flight, and judges each
// reply into the run's shared result.
type loadConn struct {
	cfg *LoadConfig
	res *LoadResult // counted with atomic adds: every connection writes it
	lat *stats.Hist
	rng *rand.Rand

	// tenant is the demo tenant the connection works as ("" single-tenant)
	// and probeTarget the one whose view its cross-checks address.
	tenant, probeTarget string
	// owed is what the connection owes the server after every (re)dial, in
	// this order, before any data command: the tenant identity (a dial
	// starts unauthenticated), the follower-read opt-in and the deadline
	// budget are all per-connection state, so a redial re-issues them as a
	// client library would.
	owed [][]string

	nc         net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	reconnects int
	issued     int // commands drawn so far
	batch      []sent

	// Staleness-probe state: the connection is the only writer of its
	// probe key, so acked versions totally order what any view of the key
	// may still legally serve. commits holds acked writes (at their ack
	// time) young enough to be servable; older ones fold into floorSeq — the
	// newest version every in-bound view must include.
	probeKey           string
	probeSeq, floorSeq uint64
	commits            []sent
}

func newLoadConn(cfg *LoadConfig, i int, res *LoadResult, lat *stats.Hist) *loadConn {
	c := &loadConn{cfg: cfg, res: res, lat: lat, rng: rand.New(rand.NewSource(cfg.Seed + int64(i))),
		probeKey: fmt.Sprintf("stale.c%03d", i)}
	if cfg.Tenants > 0 {
		c.tenant = tenant.DemoID(i % cfg.Tenants)
		c.owed = append(c.owed, []string{"AUTH", c.tenant, tenant.DemoSecret(i % cfg.Tenants)})
		if cfg.Tenants > 1 {
			c.probeTarget = tenant.DemoID((i + 1) % cfg.Tenants)
		}
	}
	if cfg.StaleReads {
		c.owed = append(c.owed, []string{"READONLY"})
	}
	if cfg.Deadline > 0 {
		c.owed = append(c.owed, []string{"DEADLINE", strconv.FormatInt(max(cfg.Deadline.Milliseconds(), 1), 10)})
	}
	return c
}

// run works through the connection's quota, one pipeline at a time, and says
// goodbye; it returns what ended the connection early, if anything did.
func (c *loadConn) run() error {
	defer c.close()
	for remaining := c.cfg.Requests; remaining > 0; {
		err := c.dial()
		if err == nil {
			var n int
			n, err = c.exchange(min(c.cfg.Pipeline, remaining))
			remaining -= n
		}
		if err != nil && !c.redial(err) {
			return err
		}
	}
	// Polite goodbye; the +OK confirms the server saw it.
	if _, err := c.nc.Write(redis.EncodeCommand("QUIT")); err == nil {
		redis.ReadReply(c.br)
	}
	return nil
}

// dial connects, unless connected, and pays what the connection owes. The
// error names the owed command the server refused or cut short.
func (c *loadConn) dial() error {
	if c.nc != nil {
		return nil
	}
	nc, err := net.Dial("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	// The server's buffer size: a pipeline leaves in one write.
	c.nc, c.br, c.bw = nc, bufio.NewReaderSize(nc, ConnBufSize), bufio.NewWriterSize(nc, ConnBufSize)
	for _, args := range c.owed {
		_, err := nc.Write(redis.EncodeCommand(args...))
		if err == nil {
			_, _, err = redis.ReadReply(c.br)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
	}
	return nil
}

// redial drops the connection after err, with any replies still unread, and
// reports whether the run goes on over a fresh dial: only with Reconnect,
// under the redial cap, and never after a refusal of what the connection owes
// (rejected credentials, say), a configuration error no redial can help.
func (c *loadConn) redial(err error) bool {
	c.close()
	if !c.cfg.Reconnect || c.reconnects >= maxReconnects || errors.As(err, new(redis.ReplyError)) {
		return false
	}
	c.reconnects++
	atomic.AddUint64(&c.res.Disconnects, 1)
	time.Sleep(2 * time.Millisecond)
	return true
}

func (c *loadConn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// exchange sends the next n commands in one write and judges their replies
// in order. It returns how many were judged and the transport error that cut
// the pipeline short, if any; a reconnect draws afresh for the rest of the
// quota, since values are functions of their key and verification does not
// care which commands land.
func (c *loadConn) exchange(n int) (int, error) {
	c.batch = c.batch[:0]
	for range n {
		s, cmd := c.draw()
		if _, err := c.bw.Write(cmd); err != nil {
			return 0, err
		}
		s.at = time.Now()
		c.batch = append(c.batch, s)
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	for i := range c.batch {
		if err := c.judge(&c.batch[i]); err != nil {
			return i, err
		}
	}
	return len(c.batch), nil
}

// draw picks the next command and renders it. Every command takes one draw
// from the connection's generator whatever it turns out to be, and its keys
// take the draws after that, so a seed always replays the same commands.
func (c *loadConn) draw() (sent, []byte) {
	d := c.rng.Intn(100)
	c.issued++
	cfg := c.cfg
	switch {
	case cfg.StaleReads && c.issued%staleCheckEvery == 0:
		if c.issued/staleCheckEvery%2 == 1 {
			c.probeSeq++
			return sent{op: opStaleSet, keys: []string{c.probeKey}, seq: c.probeSeq},
				redis.EncodeCommand("SET", c.probeKey, string(staleProbeValue(c.probeSeq, cfg.ValueSize)))
		}
		return sent{op: opStaleGet, keys: []string{c.probeKey}}, redis.EncodeCommand("GET", c.probeKey)
	case c.probeTarget != "" && cfg.CrossCheckEvery > 0 && c.issued%cfg.CrossCheckEvery == 0:
		key := redis.TenantKey(c.probeTarget, c.key())
		return sent{op: opProbe, keys: []string{key}}, redis.EncodeCommand("GET", key)
	case d < cfg.SetPercent:
		key := c.key()
		return sent{op: opSet, keys: []string{key}}, redis.EncodeCommand("SET", key, string(c.value(key)))
	case d < cfg.SetPercent+cfg.MGetPercent:
		keys := make([]string, cfg.MGetKeys)
		for k := range keys {
			keys[k] = c.key()
		}
		return sent{op: opMGet, keys: keys}, redis.EncodeCommand(append([]string{"MGET"}, keys...)...)
	}
	key := c.key()
	return sent{op: opGet, keys: []string{key}}, redis.EncodeCommand("GET", key)
}

func (c *loadConn) key() string { return fmt.Sprintf("k%06d", c.rng.Intn(c.cfg.Keys)) }

// value is what key holds in the connection's view: binary bytes (embedded
// CRLF and NUL included) drawn from the tenant-qualified key, so every
// tenant's keyspace verifies independently, padded to ValueSize.
func (c *loadConn) value(key string) []byte {
	if c.tenant != "" {
		key = redis.TenantKey(c.tenant, key)
	}
	pattern := "\r\n\x00\xff" + key + "|"
	out := make([]byte, c.cfg.ValueSize)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// judge reads the reply to s and counts what it earned: the command, its kind,
// the buckets its outcome lands in, and its values that did not verify. It is
// the one place a reply is classified, and every counter of the result but
// Disconnects grows here and nowhere else. A transport error is returned and
// counts nothing.
func (c *loadConn) judge(s *sent) error {
	vals, nils, err := c.read(s.op)
	r := c.res
	earned := make([]*uint64, 0, 4)
	earned = append(earned, &r.Commands, [...]*uint64{opGet: &r.Gets, opStaleGet: &r.Gets,
		opSet: &r.Sets, opStaleSet: &r.Sets, opMGet: &r.MGets}[s.op])
	var bad uint64 // values that did not verify
	var refusal redis.ReplyError
	switch {
	case errors.As(err, &refusal):
		earned = append(earned, c.refused(s.op, refusal))
	case err != nil:
		return err
	case s.op == opProbe:
		// The store answered a cross-view address — the capability check
		// did not fire. Nil or not, this is an isolation failure.
		earned, bad = append(earned, &r.CrossLeaks), 1
	case s.op == opStaleGet:
		earned = append(earned, &r.StaleProbes)
		if violated, wrong := c.stale(vals[0], nils[0]); violated {
			earned = append(earned, &r.StaleViolations)
		} else if wrong {
			bad = 1
		}
	case s.op == opStaleSet:
		// Acked: from now on every in-bound view must eventually include
		// this version. The ack time is read after the reply, which only
		// overstates the commit's age tolerance — never a false violation.
		c.commits = append(c.commits, sent{seq: s.seq, at: time.Now()})
	case s.op == opSet: // an ack carries nothing to verify
	case len(vals) != len(s.keys):
		bad = 1
	default:
		for k, val := range vals {
			if !nils[k] && !bytes.Equal(val, c.value(s.keys[k])) {
				bad++
			}
		}
	}
	c.lat.Observe(uint64(time.Since(s.at).Nanoseconds()))
	for _, ctr := range earned {
		if ctr != nil {
			atomic.AddUint64(ctr, 1)
		}
	}
	atomic.AddUint64(&r.Mismatches, bad)
	return nil
}

// read reads the reply to a command of kind op: an MGET's array, or one value.
func (c *loadConn) read(op int) ([][]byte, []bool, error) {
	if op == opMGet {
		return redis.ReadArrayReply(c.br)
	}
	val, isNil, err := redis.ReadReply(c.br)
	return [][]byte{val}, []bool{isNil}, err
}

// refused sorts a refusal into its bucket: typed retryable refusals (-BUSY
// backpressure, -SHARDTIMEOUT mid-failover, -DEADLINE) are busy; -QUOTA,
// -STALE — the honest refusal of a follower read past the bound — and a
// probe's expected -NOPERM have their own; anything else is a hard error.
func (c *loadConn) refused(op int, reply redis.ReplyError) *uint64 {
	switch {
	case op == opProbe && errors.Is(reply, redis.ErrNoPerm):
		return &c.res.CrossDenied
	case errors.Is(reply, redis.ErrQuota):
		return &c.res.QuotaRejected
	case errors.Is(reply, redis.ErrStale):
		return &c.res.StaleRejected
	case redis.IsRetryableReply(reply):
		return &c.res.Busy
	}
	return &c.res.Errors
}

// stale judges a probe GET's answer: any version at or past the floor (the
// newest write acked longer than the bound ago) is a legal bounded-stale
// answer; an older one, nil included (version 0: the key unwritten), should
// have been a -STALE refusal instead. A value that is no probe version is
// wrong.
func (c *loadConn) stale(val []byte, isNil bool) (violated, wrong bool) {
	now := time.Now()
	for len(c.commits) > 0 && now.Sub(c.commits[0].at) > c.cfg.StaleBound {
		c.floorSeq = max(c.floorSeq, c.commits[0].seq)
		c.commits = c.commits[1:]
	}
	seq, ok := parseStaleProbe(val)
	if !ok && !isNil {
		return false, true
	}
	return seq < c.floorSeq, false
}
