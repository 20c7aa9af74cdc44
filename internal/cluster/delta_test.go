package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
)

func deltaEntry(i int) []string { return []string{"SET", "k", strconv.Itoa(i)} }

func deltaEntries(from, to int) [][]string {
	var out [][]string
	for i := from; i < to; i++ {
		out = append(out, deltaEntry(i))
	}
	return out
}

func TestDeltaLogKeepsOrder(t *testing.T) {
	l := deltaLog{bound: 8}
	for i := 0; i < 5; i++ {
		if got := l.record(deltaEntry(i)); got != i+1 {
			t.Fatalf("record %d returned length %d, want %d", i, got, i+1)
		}
	}
	if b, d := l.pending(); b != 5 || d != 0 {
		t.Fatalf("pending = %d buffered, %d dropped; want 5, 0", b, d)
	}
	got, dropped := l.take()
	if dropped != 0 || !reflect.DeepEqual(got, deltaEntries(0, 5)) {
		t.Fatalf("take = %v (%d dropped), want entries 0..4 in order", got, dropped)
	}
	if got, dropped := l.take(); got != nil || dropped != 0 {
		t.Fatalf("second take = %v (%d dropped), want an empty window", got, dropped)
	}
}

// Past the bound order is unrecoverable: the record that does not fit and
// every record kept before it are dropped, at the log's head, and recording
// starts over behind them. A take hands out the hole with what follows it,
// and the log starts over.
func TestDeltaLogOverflowPoisons(t *testing.T) {
	l := deltaLog{bound: 3}
	for i := 0; i < 3; i++ {
		l.record(deltaEntry(i))
	}
	if got := l.record(deltaEntry(3)); got != 0 {
		t.Fatalf("record past the bound returned length %d, want 0", got)
	}
	for i := 4; i < 6; i++ {
		if got := l.record(deltaEntry(i)); got != i-3 {
			t.Fatalf("record %d behind the hole returned length %d, want %d", i, got, i-3)
		}
	}
	if b, d := l.pending(); b != 2 || d != 4 {
		t.Fatalf("pending = %d buffered, %d dropped; want 2, 4", b, d)
	}
	got, dropped := l.take()
	if dropped != 4 || !reflect.DeepEqual(got, deltaEntries(4, 6)) {
		t.Fatalf("take = %v (%d dropped), want entries 4..5 behind 4 dropped", got, dropped)
	}
	if got := l.record(deltaEntry(10)); got != 1 {
		t.Fatalf("record after the poisoned log was taken returned %d, want 1", got)
	}
}

// drop(k) forgets the first k records, dropped ones first, as a landed ship
// does for the records its image holds: what was recorded later stays, in
// order, and the log replays again once no dropped record is left. The log
// keeps its own copy of each argument list, in an array it reuses once the
// log is empty; no later record overwrites a kept one, also against a model
// of 20 000 records and random drops.
func TestDeltaLogDropKeepsLaterRecords(t *testing.T) {
	l := deltaLog{bound: 4}
	for i := 0; i < 5; i++ { // the fifth overflows: all five dropped
		l.record(deltaEntry(i))
	}
	l.record(deltaEntry(5))
	l.record(deltaEntry(6))
	l.drop(3)
	if b, d := l.pending(); b != 2 || d != 2 {
		t.Fatalf("after drop(3): %d buffered, %d dropped; want 2, 2", b, d)
	}
	args := deltaEntry(7)
	l.record(args)
	args[2] = "rewritten" // as a node's arena rewrites its slab
	l.drop(3)
	if b, d := l.pending(); b != 2 || d != 0 {
		t.Fatalf("after drop(3) past the hole: %d buffered, %d dropped; want 2, 0", b, d)
	}
	if got, dropped := l.take(); dropped != 0 || !reflect.DeepEqual(got, deltaEntries(6, 8)) {
		t.Fatalf("take = %v (%d dropped), want entries 6..7", got, dropped)
	}

	// The array is reused once the log is empty, and only then: records
	// kept at its end survive the ones recorded after them.
	l = deltaLog{bound: 64}
	for i := 0; i < 4; i++ {
		l.record(deltaEntry(i))
	}
	l.drop(4)
	for i := 4; i < 14; i++ {
		l.record(deltaEntry(i))
	}
	l.drop(8)
	for i := 14; i < 30; i++ {
		l.record(deltaEntry(i))
	}
	if got, _ := l.take(); !reflect.DeepEqual(got, deltaEntries(12, 30)) {
		t.Fatalf("take = %v, want entries 12..29", got)
	}

	l = deltaLog{bound: 1 << 20}
	var model [][]string
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		if rng.Intn(64) == 0 {
			k := rng.Intn(len(model) + 1)
			l.drop(uint64(k))
			model = model[k:]
			continue
		}
		l.record(deltaEntry(i))
		model = append(model, deltaEntry(i))
	}
	if got, _ := l.take(); !slices.EqualFunc(got, model, slices.Equal[[]string]) {
		t.Fatalf("the log keeps %d records that differ from the model's %d", len(got), len(model))
	}
}

// Workers record while the monitor takes: every entry lands in exactly one
// window, and each writer's entries keep their order across windows.
func TestDeltaLogConcurrentRecordTake(t *testing.T) {
	const writers, perWriter = 4, 500
	l := deltaLog{bound: writers * perWriter}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.record([]string{"SET", strconv.Itoa(w), strconv.Itoa(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var all [][]string
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		got, dropped := l.take()
		if dropped != 0 {
			t.Fatalf("dropped %d entries under the bound", dropped)
		}
		all = append(all, got...)
	}
	if len(all) != writers*perWriter {
		t.Fatalf("windows hold %d entries, want %d", len(all), writers*perWriter)
	}
	next := make([]int, writers)
	for _, e := range all {
		w, _ := strconv.Atoi(e[1])
		if i, _ := strconv.Atoi(e[2]); i != next[w] {
			t.Fatalf("writer %d: entry %d arrived where %d was due", w, i, next[w])
		}
		next[w]++
	}
}
