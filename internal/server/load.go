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
	// Tenants with Auth runs the load multi-tenant against a server booted
	// with a demo registry: connection i authenticates as demo tenant
	// i%Tenants (re-authenticating after every redial) and works its own
	// view of the keyspace. Values are derived from the tenant-qualified
	// key, so per-tenant keyspaces verify independently and any cross-view
	// bleed is a value mismatch, not a silent match.
	Tenants int  `json:"tenants,omitempty"`
	Auth    bool `json:"auth,omitempty"`
	// CrossCheckEvery replaces every n'th command on a connection with a
	// probe GET explicitly addressed at another tenant's view. The only
	// correct answer is a -NOPERM denial; any other reply — nil included —
	// means the capability check did not fire and counts as a cross-tenant
	// leak (and a mismatch). 0 takes the default (32); <0 disables probes.
	// Probes need Auth and at least two tenants.
	CrossCheckEvery int `json:"cross_check_every,omitempty"`
	// StaleReads opts every connection into follower reads (READONLY is
	// sent after each (re)dial, after AUTH) and interleaves staleness
	// probes into the mix: each connection owns one probe key it SETs with
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
	// StaleCheckEvery issues a probe (alternating SET and GET) every n'th
	// command on stale-read runs. 0 takes the default (8); <0 disables.
	StaleCheckEvery int `json:"stale_check_every,omitempty"`
	// Deadline sets a per-command deadline budget on every connection: the
	// DEADLINE <ms> prefix command is sent after each (re)dial, so every
	// subsequent command carries the budget and an overloaded server
	// answers typed retryable -DEADLINE refusals (counted as Busy, never
	// as failures) instead of queueing the work. 0 sends nothing — the
	// server's own default applies.
	Deadline time.Duration `json:"-"`
}

// CheckMix refuses a mix that cannot be drawn: SetPercent or MGetPercent
// outside 0..100, or the two summing past 100.
func (c LoadConfig) CheckMix() error {
	if c.SetPercent < 0 || c.MGetPercent < 0 || c.SetPercent+c.MGetPercent > 100 {
		return fmt.Errorf("load mix: set_percent %d, mget_percent %d: each 0..100, together at most 100", c.SetPercent, c.MGetPercent)
	}
	return nil
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Conns <= 0 {
		c.Conns = 64
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 8
	}
	if c.Requests <= 0 {
		c.Requests = 256
	}
	if c.MGetKeys <= 0 {
		c.MGetKeys = 4
	}
	if c.Keys <= 0 {
		c.Keys = 512
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tenants < 0 {
		c.Tenants = 0
	}
	if c.CrossCheckEvery == 0 {
		c.CrossCheckEvery = 32
	}
	if c.StaleBound <= 0 {
		c.StaleBound = time.Second
	}
	if c.StaleCheckEvery == 0 {
		c.StaleCheckEvery = 8
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

// ValueFor returns the deterministic value stored under key: binary bytes
// (embedded CRLF and NUL included) padded to size.
func ValueFor(key string, size int) []byte {
	pattern := []byte("\r\n\x00\xff" + key + "|")
	out := make([]byte, size)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// StaleProbeValue encodes version seq of a staleness probe: a
// self-identifying header the verifier parses back, padded to size with the
// same binary pattern ordinary values use.
func StaleProbeValue(seq uint64, size int) []byte {
	hdr := fmt.Sprintf("stale|%d|", seq)
	if size < len(hdr) {
		return []byte(hdr)
	}
	out := make([]byte, size)
	copy(out, hdr)
	pad := []byte("\r\n\x00\xff")
	for i := len(hdr); i < size; i++ {
		out[i] = pad[(i-len(hdr))%len(pad)]
	}
	return out
}

// ParseStaleProbe recovers the version from a probe value.
func ParseStaleProbe(val []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(val, []byte("stale|"))
	if !ok {
		return 0, false
	}
	end := bytes.IndexByte(rest, '|')
	if end <= 0 {
		return 0, false
	}
	var seq uint64
	for _, c := range rest[:end] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// RunLoad drives the server at cfg.Addr and blocks until every connection
// finishes its quota. Transport-level failures abort the run with an error
// unless cfg.Reconnect is set, in which case the connection redials and
// works through its remaining quota; error *replies* (busy, OOM) are
// counted, not fatal either way. A mix CheckMix refuses is an error before
// anything dials.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.CheckMix(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	res := &LoadResult{}
	var commands, gets, sets, mgets, busy, errCount, mismatches, disconnects atomic.Uint64
	var quotaRejected, crossDenied, crossLeaks atomic.Uint64
	var staleProbes, staleRejected, staleViolations atomic.Uint64
	var lat stats.Hist

	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))

			// Tenant identity: connection i works as demo tenant i%N. The
			// expected value of a key is derived from its tenant-qualified
			// form, so every tenant's keyspace verifies independently.
			var tid, secret, probeTarget string
			if cfg.Auth && cfg.Tenants > 0 {
				tid = tenant.DemoID(i % cfg.Tenants)
				secret = tenant.DemoSecret(i % cfg.Tenants)
				if cfg.Tenants > 1 {
					probeTarget = tenant.DemoID((i + 1) % cfg.Tenants)
				}
			}
			valKey := func(key string) string {
				if tid == "" {
					return key
				}
				return redis.TenantKey(tid, key)
			}

			var nc net.Conn
			var br *bufio.Reader
			var bw *bufio.Writer
			defer func() {
				if nc != nil {
					nc.Close()
				}
			}()
			// fail handles a transport-level failure: without Reconnect it
			// records the error and aborts this connection's run; with it,
			// the connection is abandoned (any unread in-flight replies with
			// it), the disconnect is counted, and the caller retries on a
			// fresh dial. The retry cap keeps a hard-down server from
			// spinning forever.
			const maxReconnects = 256
			reconnects := 0
			fail := func(err error) bool {
				if nc != nil {
					nc.Close()
					nc = nil
				}
				if !cfg.Reconnect || reconnects >= maxReconnects {
					errs[i] = err
					return false
				}
				reconnects++
				disconnects.Add(1)
				time.Sleep(2 * time.Millisecond)
				return true
			}

			const (
				opGet = iota
				opSet
				opMGet
				opProbe    // GET explicitly addressed at another tenant's view
				opStaleSet // versioned write to this connection's staleness probe key
				opStaleGet // read of the probe key: fresh version, bounded-old version, or -STALE
			)
			type sent struct {
				op   int
				keys []string // one key for GET/SET, several for MGET
				seq  uint64   // probe version (opStaleSet)
				at   time.Time
			}
			batch := make([]sent, 0, cfg.Pipeline)
			issued := 0

			// Staleness-probe state: this connection is the only writer of
			// its probe key, so acked versions totally order what any view of
			// the key may still legally serve. probeCommits holds acked
			// writes young enough to be servable; older ones fold into
			// floorSeq — the newest version every in-bound view must include.
			type probeCommit struct {
				seq uint64
				at  time.Time
			}
			probeKey := fmt.Sprintf("stale.c%03d", i)
			var probeCommits []probeCommit
			var probeSeq, floorSeq uint64
			probeWrite := true
			// owed is what the connection owes the server after every
			// (re)dial, in this order, before any data command: the tenant
			// identity (a dial starts unauthenticated), the follower-read
			// opt-in and the deadline budget are all per-connection state, so
			// a redial re-issues them as a client library would. what
			// prefixes the error when the server refuses one.
			type prefix struct {
				what string
				wire []byte
			}
			var owed []prefix
			if tid != "" {
				owed = append(owed, prefix{"auth " + tid, redis.EncodeCommand("AUTH", tid, secret)})
			}
			if cfg.StaleReads {
				owed = append(owed, prefix{"readonly", redis.EncodeCommand("READONLY")})
			}
			if cfg.Deadline > 0 {
				ms := max(cfg.Deadline.Milliseconds(), 1)
				owed = append(owed, prefix{"deadline", redis.EncodeCommand("DEADLINE", strconv.FormatInt(ms, 10))})
			}
		requests:
			for remaining := cfg.Requests; remaining > 0; {
				if nc == nil {
					c, err := net.Dial("tcp", cfg.Addr)
					if err != nil {
						if fail(err) {
							continue
						}
						return
					}
					// The server's buffer size: a pipeline leaves in one write.
					nc, br, bw = c, bufio.NewReaderSize(c, ConnBufSize), bufio.NewWriterSize(c, ConnBufSize)
					for _, p := range owed {
						_, err := nc.Write(p.wire)
						if err == nil {
							_, _, err = redis.ReadReply(br)
						}
						if err == nil {
							continue
						}
						if errors.As(err, new(redis.ReplyError)) {
							// A refusal — rejected credentials, say — is a
							// configuration error; redialing cannot help.
							errs[i] = fmt.Errorf("%s: %w", p.what, err)
							return
						}
						if fail(err) {
							continue requests
						}
						return
					}
				}
				n := cfg.Pipeline
				if n > remaining {
					n = remaining
				}
				batch = batch[:0]
				writeErr := error(nil)
				for j := 0; j < n; j++ {
					draw := rng.Intn(100)
					issued++
					var s sent
					var cmd []byte
					switch {
					case cfg.StaleReads && cfg.StaleCheckEvery > 0 && issued%cfg.StaleCheckEvery == 0:
						if probeWrite {
							probeSeq++
							s = sent{op: opStaleSet, keys: []string{probeKey}, seq: probeSeq}
							cmd = redis.EncodeCommand("SET", probeKey, string(StaleProbeValue(probeSeq, cfg.ValueSize)))
						} else {
							s = sent{op: opStaleGet, keys: []string{probeKey}}
							cmd = redis.EncodeCommand("GET", probeKey)
						}
						probeWrite = !probeWrite
					case probeTarget != "" && cfg.CrossCheckEvery > 0 && issued%cfg.CrossCheckEvery == 0:
						key := redis.TenantKey(probeTarget, fmt.Sprintf("k%06d", rng.Intn(cfg.Keys)))
						s = sent{op: opProbe, keys: []string{key}}
						cmd = redis.EncodeCommand("GET", key)
					case draw < cfg.SetPercent:
						key := fmt.Sprintf("k%06d", rng.Intn(cfg.Keys))
						s = sent{op: opSet, keys: []string{key}}
						cmd = redis.EncodeCommand("SET", key, string(ValueFor(valKey(key), cfg.ValueSize)))
					case draw < cfg.SetPercent+cfg.MGetPercent:
						keys := make([]string, cfg.MGetKeys)
						for k := range keys {
							keys[k] = fmt.Sprintf("k%06d", rng.Intn(cfg.Keys))
						}
						s = sent{op: opMGet, keys: keys}
						cmd = redis.EncodeCommand(append([]string{"MGET"}, keys...)...)
					default:
						key := fmt.Sprintf("k%06d", rng.Intn(cfg.Keys))
						s = sent{op: opGet, keys: []string{key}}
						cmd = redis.EncodeCommand("GET", key)
					}
					if _, err := bw.Write(cmd); err != nil {
						writeErr = err
						break
					}
					s.at = time.Now()
					batch = append(batch, s)
				}
				if writeErr == nil {
					writeErr = bw.Flush()
				}
				if writeErr != nil {
					// Nothing from this batch was consumed; a reconnect
					// retries the full remaining quota (with fresh draws —
					// values are functions of their key, so verification
					// does not care which commands land).
					if fail(writeErr) {
						continue
					}
					return
				}
				consumed := 0
				var transportErr error
				for _, s := range batch {
					var err error
					if s.op == opMGet {
						var vals [][]byte
						var nils []bool
						vals, nils, err = redis.ReadArrayReply(br)
						if err == nil {
							if len(vals) != len(s.keys) {
								mismatches.Add(1)
							} else {
								for k := range vals {
									if !nils[k] && !bytes.Equal(vals[k], ValueFor(valKey(s.keys[k]), cfg.ValueSize)) {
										mismatches.Add(1)
									}
								}
							}
						}
					} else {
						var val []byte
						var isNil bool
						val, isNil, err = redis.ReadReply(br)
						if err == nil && s.op == opGet && !isNil && !bytes.Equal(val, ValueFor(valKey(s.keys[0]), cfg.ValueSize)) {
							mismatches.Add(1)
						}
						if err == nil && s.op == opStaleGet {
							// Any version at or past the floor (the newest
							// write acked longer than the bound ago) is a
							// legal bounded-stale answer; older than that,
							// the server should have said -STALE instead.
							staleProbes.Add(1)
							now := time.Now()
							for len(probeCommits) > 0 && now.Sub(probeCommits[0].at) > cfg.StaleBound {
								if probeCommits[0].seq > floorSeq {
									floorSeq = probeCommits[0].seq
								}
								probeCommits = probeCommits[1:]
							}
							switch seq, ok := ParseStaleProbe(val); {
							case isNil:
								if floorSeq > 0 {
									staleViolations.Add(1)
								}
							case !ok:
								mismatches.Add(1)
							case seq < floorSeq:
								staleViolations.Add(1)
							}
						}
					}
					var reply redis.ReplyError
					switch {
					case errors.As(err, &reply):
						// Typed retryable refusals (-BUSY backpressure,
						// -SHARDTIMEOUT mid-failover) count as busy;
						// -QUOTA, -STALE, and a probe's expected -NOPERM
						// have their own buckets; anything else is a hard
						// error.
						switch {
						case s.op == opProbe && errors.Is(reply, redis.ErrNoPerm):
							crossDenied.Add(1)
						case errors.Is(reply, redis.ErrQuota):
							quotaRejected.Add(1)
						case errors.Is(reply, redis.ErrStale):
							// The honest refusal of a follower read past the
							// bound — the explicit alternative to serving a
							// too-old value.
							staleRejected.Add(1)
						case redis.IsRetryableReply(reply):
							busy.Add(1)
						default:
							errCount.Add(1)
						}
					case err != nil:
						transportErr = err
					default:
						if s.op == opProbe {
							// The store answered a cross-view address — the
							// capability check did not fire. Nil or not,
							// this is an isolation failure.
							crossLeaks.Add(1)
							mismatches.Add(1)
						}
						if s.op == opStaleSet {
							// Acked: from now on every in-bound view must
							// eventually include this version. The ack time
							// is read after the reply, which only overstates
							// the commit's age tolerance — never a false
							// violation.
							probeCommits = append(probeCommits, probeCommit{seq: s.seq, at: time.Now()})
						}
					}
					if transportErr != nil {
						break
					}
					lat.Observe(uint64(time.Since(s.at).Nanoseconds()))
					commands.Add(1)
					consumed++
					switch s.op {
					case opGet, opStaleGet:
						gets.Add(1)
					case opSet, opStaleSet:
						sets.Add(1)
					case opMGet:
						mgets.Add(1)
					}
				}
				remaining -= consumed
				if transportErr != nil {
					if fail(transportErr) {
						continue
					}
					return
				}
			}
			// Polite goodbye; the +OK confirms the server saw it.
			if nc != nil {
				if _, err := nc.Write(redis.EncodeCommand("QUIT")); err == nil {
					redis.ReadReply(br)
				}
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Commands = commands.Load()
	res.Gets = gets.Load()
	res.Sets = sets.Load()
	res.MGets = mgets.Load()
	res.Busy = busy.Load()
	res.Errors = errCount.Load()
	res.Mismatches = mismatches.Load()
	res.Disconnects = disconnects.Load()
	res.QuotaRejected = quotaRejected.Load()
	res.CrossDenied = crossDenied.Load()
	res.CrossLeaks = crossLeaks.Load()
	res.StaleProbes = staleProbes.Load()
	res.StaleRejected = staleRejected.Load()
	res.StaleViolations = staleViolations.Load()
	res.Latency = lat.Snap()
	return res, errors.Join(errs...)
}
