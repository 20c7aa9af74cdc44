package cluster

import "sync"

// deltaLog is a bounded, ordered log of writes already applied to one copy
// of a key range and still owed to another: a replicated node's
// post-checkpoint tail, which promotion replays onto the standby, and a slot
// migration's writes during the copy, which the engine replays onto the
// target. Once an entry does not fit the bound, order is unrecoverable: the
// log is poisoned, and every later entry is only counted until the window
// is taken.
type deltaLog struct {
	bound int // fixed at construction

	mu      sync.Mutex
	entries [][]string
	dropped uint64
}

// record appends one applied write and returns the buffered length, 0 when
// the entry was dropped instead.
func (l *deltaLog) record(args []string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dropped > 0 || len(l.entries) >= l.bound {
		l.dropped++
		return 0
	}
	l.entries = append(l.entries, args)
	return len(l.entries)
}

// take drains the window. A nonzero dropped means the log overflowed and
// the entries must not be replayed: they are a prefix with a hole after it.
func (l *deltaLog) take() (entries [][]string, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries, dropped = l.entries, l.dropped
	l.entries, l.dropped = nil, 0
	return entries, dropped
}

// restore puts back a window whose replay target turned out not to hold it
// after all: the entries are older than anything recorded since the take,
// so they go back ahead of it.
func (l *deltaLog) restore(entries [][]string, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(entries, l.entries...)
	l.dropped += dropped
}

// pending reports the window's size without draining it.
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
