package cluster

import (
	"reflect"
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

// Past the bound order is unrecoverable: the log keeps the prefix that fit,
// counts everything after it — also entries that would fit again had the
// log not overflowed — and starts over once the window is taken.
func TestDeltaLogOverflowPoisons(t *testing.T) {
	l := deltaLog{bound: 3}
	for i := 0; i < 3; i++ {
		l.record(deltaEntry(i))
	}
	for i := 3; i < 10; i++ {
		if got := l.record(deltaEntry(i)); got != 0 {
			t.Fatalf("record %d past the bound returned length %d, want 0", i, got)
		}
	}
	if b, d := l.pending(); b != 3 || d != 7 {
		t.Fatalf("pending = %d buffered, %d dropped; want 3, 7", b, d)
	}
	got, dropped := l.take()
	if dropped != 7 || !reflect.DeepEqual(got, deltaEntries(0, 3)) {
		t.Fatalf("take = %v (%d dropped), want the 3-entry prefix and 7 dropped", got, dropped)
	}
	if got := l.record(deltaEntry(10)); got != 1 {
		t.Fatalf("record after the poisoned window was taken returned %d, want 1", got)
	}
}

// A window whose replay target turned out not to hold it goes back ahead of
// what was recorded in the meantime, and its dropped count is not forgotten.
func TestDeltaLogRestoreGoesAhead(t *testing.T) {
	l := deltaLog{bound: 16}
	for i := 0; i < 4; i++ {
		l.record(deltaEntry(i))
	}
	taken, dropped := l.take()
	for i := 4; i < 6; i++ {
		l.record(deltaEntry(i))
	}
	l.restore(taken, dropped+2)
	got, dropped := l.take()
	if dropped != 2 || !reflect.DeepEqual(got, deltaEntries(0, 6)) {
		t.Fatalf("after restore, take = %v (%d dropped), want entries 0..5 in order and 2 dropped", got, dropped)
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
