package cluster

import (
	"slices"
	"sync"
)

// deltaLog is a bounded, ordered log of writes already applied to one copy
// of a key range and still owed to another: what a replicated node applied
// since the image its standby holds, which promotion replays onto the
// standby. A record past the bound drops itself and every record kept
// before it (none replays in order any more) to the log's head, which only
// drop or take clears; recording goes on behind them.
type deltaLog struct {
	bound int // fixed at construction

	mu      sync.Mutex
	dropped uint64     // records at the head that are not kept
	entries [][]string // the records behind them, in order
	args    []string   // the entries' argument lists, copied; rewritten only once no entry is left
}

// record copies one applied write into the log and returns how many records
// the log keeps, 0 when this one overflowed it.
func (l *deltaLog) record(args []string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= l.bound {
		l.dropped += uint64(len(l.entries)) + 1
		l.entries, l.args = l.entries[:0], l.args[:0]
		return 0
	}
	if cap(l.args)-len(l.args) < len(args) {
		l.args = make([]string, 0, max(1024, len(args))) // the entries keep the old array
	}
	l.args = append(l.args, args...)
	l.entries = append(l.entries, slices.Clip(l.args[len(l.args)-len(args):]))
	return len(l.entries)
}

// take drains the log. Entries behind a nonzero dropped must not be replayed.
func (l *deltaLog) take() (entries [][]string, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries, dropped = l.entries, l.dropped
	l.entries, l.dropped, l.args = nil, 0, nil
	return entries, dropped
}

// drop forgets the first k records, dropped ones first: an image the replica
// applied holds them. Once no dropped record is left, the log replays again.
func (l *deltaLog) drop(k uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := min(k, l.dropped)
	l.dropped -= head
	l.entries = slices.Delete(l.entries, 0, int(min(k-head, uint64(len(l.entries)))))
	if len(l.entries) == 0 {
		l.args = l.args[:0]
	}
}

// pending reports the log's size, kept and dropped, without draining it.
func (l *deltaLog) pending() (buffered int, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries), l.dropped
}

// replay applies delta-log entries, in log order, to the copy of node n's
// range that t reaches, and returns how many it applied. It stops at the
// first entry the copy refuses or the transport loses: what follows a hole
// cannot be applied in order.
func replay(n *node, t target, entries [][]string) (applied uint64, err error) {
	for _, args := range entries {
		if _, err = t.run(n, args...); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}
