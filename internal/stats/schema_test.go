package stats

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// handFilled are the Snapshot fields that no live field is paired with:
// Sink.Snapshot builds them from the per-core shards, the per-op syscall
// histograms and the tracer, and hw and core complete the rest.
var handFilled = map[string]bool{
	"Cores": true, "Cycles": true, "ASIDs": true, "Syscalls": true,
	"TLB.Hits": true, "TLB.Misses": true, "TLB.Evictions": true,
	"Switches": true, "TraceRecorded": true, "TraceDropped": true,
}

// TestSchemaPairs walks the live blocks beside the Snapshot type: a live
// field must have a Snapshot field of its name and kind to be copied into (or
// it would count and never show), and a Snapshot field must have a live field
// or be on the short hand-filled list (or it would show and never count).
func TestSchemaPairs(t *testing.T) {
	s := scriptedSink(1, 0)
	pairBlocks(t, "", reflect.ValueOf(&s.live).Elem(), reflect.TypeOf(Snapshot{}))
}

func pairBlocks(t *testing.T, path string, live reflect.Value, snap reflect.Type) {
	paired := map[string]bool{}
	for i := 0; i < live.NumField(); i++ {
		name := live.Type().Field(i).Name
		sf, ok := snap.FieldByName(name)
		if !ok {
			t.Errorf("live counter %s%s: %s has no field %s", path, live.Type().Field(i).Name, snap, name)
			continue
		}
		paired[name] = true
		st, fits := sf.Type, false
		switch l := live.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			fits = st.Kind() == reflect.Uint64
		case *Hist:
			fits = st == histSnapType
		case *slotKeys:
			fits = st == reflect.TypeOf(map[int]uint64(nil))
		case interface{ blocks() []reflect.Value }:
			if fits = st.Kind() == reflect.Slice; fits {
				pairBlocks(t, path+name+"[].", l.blocks()[0], st.Elem())
			}
		default:
			if st.Kind() == reflect.Pointer {
				st = st.Elem()
			}
			if fits = st.Kind() == reflect.Struct; fits {
				pairBlocks(t, path+name+".", live.Field(i), st)
			}
		}
		if !fits {
			t.Errorf("live counter %s%s is a %s, Snapshot field %s a %s", path, name, live.Field(i).Type(), name, sf.Type)
		}
	}
	for i := 0; i < snap.NumField(); i++ {
		if name := snap.Field(i).Name; !paired[name] && !handFilled[path+name] {
			t.Errorf("Snapshot field %s%s has no live counter and is not hand-filled", path, name)
		}
	}
}

// TestEveryLeafRecorded calls each recording method once (recordAll) and then
// requires every counter and histogram of the Snapshot type to have counted
// in at least one row — except what hw and core fill in after the sink. With
// TestSchemaPairs this is the whole cost of a new counter: a live field, a
// Snapshot field, a record site; forget one and a test names it.
func TestEveryLeafRecorded(t *testing.T) {
	counted := map[string]bool{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			counted[path] = counted[path] || v.Uint() != 0
		case reflect.Struct:
			if v.Type() == histSnapType {
				counted[path] = counted[path] || !isZero(v)
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Pointer:
			if v.IsNil() {
				t.Errorf("%s: optional block absent after every method recorded", path)
				return
			}
			walk(path, v.Elem())
		case reflect.Slice, reflect.Map:
			if v.Len() == 0 {
				t.Errorf("%s: empty after every method recorded", path)
			}
			if v.Kind() == reflect.Slice {
				for i := 0; i < v.Len(); i++ {
					walk(path+"[]", v.Index(i))
				}
				return
			}
			for it := v.MapRange(); it.Next(); {
				walk(path+"{}", it.Value())
			}
		}
	}
	walk("", reflect.ValueOf(scriptedSink(1, 1).Snapshot()))
	for _, elsewhere := range []string{".Cycles", ".TLBHits", ".TLBMisses", ".Faults", ".CR3Loads"} {
		delete(counted, ".Cores[]"+elsewhere)
	}
	delete(counted, ".Switches")
	if len(counted) < 80 {
		t.Errorf("walk reached %d leaves; the Snapshot type has over eighty", len(counted))
	}
	for path, ok := range counted {
		if !ok {
			t.Errorf("%s is zero after every recording method was called: no method records it, or recordAll lacks the method", path)
		}
	}
}

// TestTableGrowKeepsIncrements: rows record while the node and tenant tables
// grow under them again and again; afterwards the per-row sums equal the
// totals exactly. (With tables of counters that were copied on grow, an
// increment landing on the old row after its copy was lost.)
func TestTableGrowKeepsIncrements(t *testing.T) {
	const workers, perWorker, maxRows = 4, 20000, 64
	s := NewSink(1)
	cl := s.Cluster()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cl.Local.Add(1)
				cl.Nodes.Row(w).Local.Add(1)
				s.Tenant(w).Commands.Add(1)
				s.Tenant(w).Bytes.Add(3)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := workers + 1; n <= maxRows; n++ {
			cl.Nodes.Row(n - 1)
			s.Tenant(n - 1)
		}
	}()
	wg.Wait()
	snap := s.Snapshot()
	if len(snap.Cluster.Nodes) != maxRows || len(snap.Tenants) != maxRows {
		t.Fatalf("tables grew to %d nodes, %d tenants, want %d", len(snap.Cluster.Nodes), len(snap.Tenants), maxRows)
	}
	var local, commands, bytes uint64
	for _, n := range snap.Cluster.Nodes {
		local += n.Local
	}
	for _, tn := range snap.Tenants {
		commands += tn.Commands
		bytes += tn.Bytes
	}
	if want := uint64(workers * perWorker); local != want || snap.Cluster.Local != want || commands != want || bytes != 3*want {
		t.Errorf("per-row sums: local %d (total %d), tenant commands %d, bytes %d; want %d, %d, %d, %d",
			local, snap.Cluster.Local, commands, bytes, want, want, want, 3*want)
	}
}
