package stats

import (
	"reflect"
	"sync/atomic"
)

// table is a grow-only table of counter blocks — one per cluster node,
// tenant or worker shard. It holds pointers to the blocks: growing copies the
// pointers, never the counters, so an increment that races a grow lands in a
// block the old and the new table share and the per-row sums stay equal to
// the totals. (The append-on-first-use shape of CoreCounters.asids.)
type table[T any] struct {
	rows atomic.Pointer[[]*T]
}

// atLeast returns the rows, first growing the table to n of them (so
// atLeast(0) only reads). Rows keep their blocks across a grow, concurrent
// growers retry on each other's result, and a published slice is never
// written again.
func (t *table[T]) atLeast(n int) []*T {
	for {
		old := t.rows.Load()
		var rows []*T
		if old != nil {
			rows = *old
		}
		if len(rows) >= n {
			return rows
		}
		grown := make([]*T, n)
		for i := copy(grown, rows); i < n; i++ {
			grown[i] = new(T)
		}
		if t.rows.CompareAndSwap(old, &grown) {
			return grown
		}
	}
}

// Row returns block i, first growing the table to reach it: what a node, a
// tenant or a worker shard holds from the day it is built.
func (t *table[T]) Row(i int) *T { return t.atLeast(i + 1)[i] }

// blocks hands the snapshot walk the rows as addressable struct values.
func (t *table[T]) blocks() []reflect.Value {
	rows := t.atLeast(0)
	out := make([]reflect.Value, len(rows))
	for i, r := range rows {
		out[i] = reflect.ValueOf(r).Elem()
	}
	return out
}
