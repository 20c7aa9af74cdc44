package redis

import (
	"strconv"
	"strings"
)

// Typed RESP error replies. Redis convention puts a machine-readable code
// in the reply's first word ("-BUSY ...", "-MOVED ..."); the cluster layer
// follows it so the load generator and tests can match replies on sentinel
// errors instead of scraping message text. A decoded ReplyError matches a
// sentinel via errors.Is whenever its leading code word agrees — the
// human-readable tail (node ids, detail) is free to vary.
const (
	codeShardTimeout  = "SHARDTIMEOUT"
	codeShardDegraded = "SHARDDEGRADED"
	codeBusy          = "BUSY"
	codeMoved         = "MOVED"
	codeNoPerm        = "NOPERM"
	codeQuota         = "QUOTA"
	codeStale         = "STALE"
	codeDeadline      = "DEADLINE"
)

// Sentinel reply errors. Use errors.Is against a decoded ReplyError; use
// the Encode helpers to render the wire form with per-reply detail.
var (
	// ErrShardTimeout is a shard whose remote calls keep timing out — the
	// command may be retried once the range fails over or the node heals.
	ErrShardTimeout = ReplyError(codeShardTimeout + " shard timeout: node unreachable, retry")
	// ErrShardDegraded is a shard whose key range lost both its primary and
	// a recoverable replica image — retrying will not help.
	ErrShardDegraded = ReplyError(codeShardDegraded + " shard degraded: no recoverable replica")
	// ErrBusy is the serving layer's backpressure rejection.
	ErrBusy = ReplyError(codeBusy + " server busy, retry")
	// ErrMoved is a command that raced a slot migration's ownership flip —
	// the slot's keys now live on another node; retrying routes against the
	// new slot table.
	ErrMoved = ReplyError(codeMoved + " slot moved, retry")
	// ErrNoPerm is a capability denial: the connection's tenant holds no
	// capability covering the addressed view (paper §4.2 — a segment attach
	// outside the caller's ACL fails at the check, not as a missing key).
	// Terminal for the command; retrying cannot help.
	ErrNoPerm = ReplyError(codeNoPerm + " permission denied")
	// ErrQuota is a quota rejection at admission — the tenant is over its
	// byte, key, or command-rate budget. Terminal for the command.
	ErrQuota = ReplyError(codeQuota + " tenant quota exceeded")
	// ErrStale is a follower read refused because the node's freshest frozen
	// view exceeds the configured staleness bound. Not retryable by blind
	// re-send — the client should either accept fresh routing (READWRITE) or
	// wait for the next fork; the load generator counts these as explicit
	// bound enforcement, never as failures.
	ErrStale = ReplyError(codeStale + " follower view exceeds staleness bound")
	// ErrDeadline is a command refused or abandoned because its deadline
	// budget ran out — the router would not start (or finish) a dispatch it
	// cannot complete within the request's remaining cycle allowance.
	// Retryable: a fresh request carries a fresh budget.
	ErrDeadline = ReplyError(codeDeadline + " deadline budget exhausted, retry")
)

// Is makes errors.Is(reply, ErrShardTimeout) and friends match on the
// leading code word, so sentinel matching survives per-reply detail text.
func (e ReplyError) Is(target error) bool {
	t, ok := target.(ReplyError)
	if !ok {
		return false
	}
	switch t {
	case ErrShardTimeout, ErrShardDegraded, ErrBusy, ErrMoved, ErrNoPerm, ErrQuota, ErrStale, ErrDeadline:
		return replyCode(string(e)) == replyCode(string(t))
	}
	return string(e) == string(t)
}

func replyCode(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// EncodeShardTimeout renders the retryable shard-timeout reply for a node.
func EncodeShardTimeout(node int) []byte {
	return replyLine('-', codeShardTimeout, " shard timeout: node ", strconv.Itoa(node), " unreachable, retry")
}

// EncodeShardDegraded renders the non-retryable degraded-range reply.
func EncodeShardDegraded(node int, detail string) []byte {
	return replyLine('-', codeShardDegraded, " node ", strconv.Itoa(node), " degraded: ", detail)
}

// EncodeBusy renders the serving layer's backpressure rejection.
func EncodeBusy(detail string) []byte {
	return replyLine('-', codeBusy, " ", detail)
}

// EncodeMoved renders the retryable slot-moved reply, in Redis cluster
// shape ("-MOVED <slot> <node>"): the command raced an ownership flip and
// should be retried — the router re-resolves against the new slot table.
func EncodeMoved(slot, node int) []byte {
	return replyLine('-', codeMoved, " ", strconv.Itoa(slot), " node-", strconv.Itoa(node))
}

// EncodeNoPerm renders the capability-denial reply. detail says which view
// the caller could not address, not whether the key exists there — a denial
// must be distinguishable from a miss.
func EncodeNoPerm(detail string) []byte {
	return replyLine('-', codeNoPerm, " ", detail)
}

// EncodeQuota renders the quota-rejection reply.
func EncodeQuota(detail string) []byte {
	return replyLine('-', codeQuota, " ", detail)
}

// EncodeStale renders the staleness-bound refusal for a follower read.
// detail carries the view's age and the bound, so a client can tell how far
// behind the follower was.
func EncodeStale(detail string) []byte {
	return replyLine('-', codeStale, " ", detail)
}

// EncodeDeadline renders the retryable deadline-budget refusal. detail says
// where the budget died (pre-dispatch refusal vs mid-call exhaustion) and
// against which node.
func EncodeDeadline(detail string) []byte {
	return replyLine('-', codeDeadline, " ", detail)
}

// IsRetryableReply reports whether an error reply asks the client to try
// again later (backpressure, a shard mid-failover, or a deadline budget
// that a fresh request would reset) rather than reporting a hard failure.
func IsRetryableReply(e ReplyError) bool {
	switch replyCode(string(e)) {
	case codeBusy, codeShardTimeout, codeMoved, codeDeadline:
		return true
	}
	return false
}
