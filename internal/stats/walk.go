package stats

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
)

// The exported Snapshot type tree is the one schema of this package. Its
// leaves are uint64 counters and HistSnap histograms; its inner nodes are
// struct blocks, optional (pointer) blocks, slices of per-row blocks and maps.
// The five functions below walk that tree by reflection, off the command
// path: fill copies the live counters in, isZero prunes, subtract is Delta,
// text is WriteText and Counter reads one leaf by name. None of them names a
// counter, so declaring one in a *Snap type (and in the live block that feeds
// it) is all they need.
//
// `stats:"carry"` on a Snapshot field marks what subtraction has no meaning
// for: subtract copies the later value.

// fill copies the live block into dst, the Snapshot block of the same
// shape, pairing fields by name. An optional (pointer) block is left nil
// when nothing under it has counted.
func fill(dst, live reflect.Value) {
	for i := 0; i < live.NumField(); i++ {
		lf := live.Field(i)
		df := dst.FieldByName(live.Type().Field(i).Name)
		if !df.IsValid() {
			panic("stats: live counter " + live.Type().Field(i).Name + " has no field in " + dst.Type().String())
		}
		switch l := lf.Addr().Interface().(type) {
		case *atomic.Uint64:
			df.SetUint(l.Load())
		case *Hist:
			df.Set(reflect.ValueOf(l.Snap()))
		case *slotKeys:
			df.Set(reflect.ValueOf(l.snapshot()))
		case interface{ blocks() []reflect.Value }:
			rows := l.blocks()
			df.Set(reflect.MakeSlice(df.Type(), len(rows), len(rows)))
			for j, row := range rows {
				fill(df.Index(j), row)
			}
		default:
			if df.Kind() != reflect.Pointer {
				fill(df, lf)
				break
			}
			block := reflect.New(df.Type().Elem())
			fill(block.Elem(), lf)
			if !isZero(block.Elem()) {
				df.Set(block)
			}
		}
	}
}

var histSnapType = reflect.TypeOf(HistSnap{})

// isZero reports whether no counter under v has counted: the test for an
// optional block that stays out of the snapshot, a map entry that stays out
// of a delta and a row that stays out of the text.
func isZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Uint64:
		return v.Uint() == 0
	case reflect.Int:
		return true // a label (CoreSnap.ID), not a count
	case reflect.Pointer:
		return v.IsNil() || isZero(v.Elem())
	case reflect.Struct:
		if v.Type() == histSnapType {
			// Count alone: a delta carries the later Max with nothing observed.
			return v.FieldByName("Count").Uint() == 0
		}
		for i := 0; i < v.NumField(); i++ {
			if !isZero(v.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !isZero(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if !isZero(it.Value()) {
				return false
			}
		}
		return true
	}
	panic("stats: " + v.Type().String() + " has no place in a Snapshot")
}

// subtract sets out to after − before for one node of the Snapshot tree.
// out is zero on entry; before may be the zero value of its type, which is
// how a missing block, row or entry subtracts as all-zero.
func subtract(out, after, before reflect.Value) {
	switch after.Kind() {
	case reflect.Uint64:
		out.SetUint(after.Uint() - before.Uint())
	case reflect.Struct:
		if after.Type() == histSnapType {
			out.Set(reflect.ValueOf(after.Interface().(HistSnap).sub(before.Interface().(HistSnap))))
			return
		}
		for i := 0; i < after.NumField(); i++ {
			if after.Type().Field(i).Tag.Get("stats") == "carry" {
				out.Field(i).Set(after.Field(i))
			} else {
				subtract(out.Field(i), after.Field(i), before.Field(i))
			}
		}
	case reflect.Pointer:
		if after.IsNil() {
			return
		}
		b := reflect.Zero(after.Type().Elem())
		if !before.IsNil() {
			b = before.Elem()
		}
		out.Set(reflect.New(after.Type().Elem()))
		subtract(out.Elem(), after.Elem(), b)
	case reflect.Slice:
		out.Set(reflect.MakeSlice(after.Type(), after.Len(), after.Len()))
		for i := 0; i < after.Len(); i++ {
			b := reflect.Zero(after.Type().Elem())
			if i < before.Len() {
				b = before.Index(i)
			}
			subtract(out.Index(i), after.Index(i), b)
		}
	case reflect.Map:
		out.Set(reflect.MakeMapWithSize(after.Type(), after.Len()))
		for it := after.MapRange(); it.Next(); {
			b := before.MapIndex(it.Key())
			if !b.IsValid() {
				b = reflect.Zero(after.Type().Elem())
			}
			d := reflect.New(after.Type().Elem()).Elem()
			subtract(d, it.Value(), b)
			if !isZero(d) {
				out.SetMapIndex(it.Key(), d)
			}
		}
	default:
		panic("stats: " + after.Type().String() + " has no place in a Snapshot")
	}
}

// Counter reads the uint64 leaf that a dotted path of JSON names
// ("cluster.replication.promotions") reaches from root, a struct or a pointer
// to one — a Snapshot, or any struct whose JSON tags name its counters. An
// absent (nil) block reads as zero, and a path that crosses a slice sums its
// rows ("tenants.quota_rejections"). The path is held to the type, not to
// what happens to be present, so a name that is no counter is an error even
// when root is nil.
func Counter(root any, path string) (uint64, error) {
	return counter(reflect.ValueOf(root), path, strings.Split(path, "."))
}

func counter(v reflect.Value, path string, rest []string) (uint64, error) {
	switch k := v.Kind(); {
	case k == reflect.Pointer && !v.IsNil():
		return counter(v.Elem(), path, rest)
	case k == reflect.Pointer:
		return counter(reflect.Zero(v.Type().Elem()), path, rest)
	case k == reflect.Slice:
		// The zero row holds the path to the type; the rows sum.
		sum, err := counter(reflect.Zero(v.Type().Elem()), path, rest)
		for i := 0; i < v.Len() && err == nil; i++ {
			n, _ := counter(v.Index(i), path, rest)
			sum += n
		}
		return sum, err
	case k == reflect.Uint64 && len(rest) == 0:
		return v.Uint(), nil
	case k == reflect.Struct && len(rest) > 0:
		for i := 0; i < v.NumField(); i++ {
			if name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ","); name == rest[0] {
				return counter(v.Field(i), path, rest[1:])
			}
		}
	}
	return 0, fmt.Errorf("%q does not name a counter", path)
}

// allocate points every optional block under the struct v at a copy of its
// own, or at a zero block where it has none.
func allocate(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Pointer {
			block := reflect.New(f.Type().Elem())
			if !f.IsNil() {
				block.Elem().Set(f.Elem())
			}
			allocate(block.Elem())
			f.Set(block)
		}
	}
}

// textName is the name a Snapshot field prints under: its JSON name with
// dashes.
func textName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return strings.ReplaceAll(name, "_", "-")
}

// text prints the node v of the Snapshot tree under name, skipping whatever
// has not counted. A block is one row of "field value" cells (and hit-rate,
// where the type computes one) with its histograms and nested blocks one
// level in; a slice is one block per row; a map of counters is a row, a map
// of blocks a list of them.
func text(w io.Writer, indent, name string, v reflect.Value) {
	if isZero(v) {
		return
	}
	switch v.Kind() {
	case reflect.Uint64:
		fmt.Fprintf(w, "%s%s\t%d\n", indent, name, v.Uint())
	case reflect.Pointer:
		text(w, indent, name, v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			text(w, indent, fmt.Sprintf("%s %d", strings.TrimSuffix(name, "s"), i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Kind() == reflect.String {
				return keys[i].String() < keys[j].String()
			}
			if keys[i].CanInt() {
				return keys[i].Int() < keys[j].Int()
			}
			return keys[i].Uint() < keys[j].Uint()
		})
		if v.Type().Elem().Kind() == reflect.Uint64 {
			fmt.Fprintf(w, "%s%s", indent, name)
			for _, k := range keys {
				fmt.Fprintf(w, "\t%v %d", k, v.MapIndex(k).Uint())
			}
			fmt.Fprintln(w)
			return
		}
		fmt.Fprintf(w, "%s%s\n", indent, name)
		for _, k := range keys {
			text(w, indent+"  ", fmt.Sprint(k), v.MapIndex(k))
		}
	case reflect.Struct:
		if h, ok := v.Interface().(HistSnap); ok {
			fmt.Fprintf(w, "%s%s\tn %d\tmean %.0f\tp50 ≤%d\tp99 ≤%d\tmax %d\n",
				indent, name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max)
			return
		}
		fmt.Fprintf(w, "%s%s", indent, name)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Uint64 {
				fmt.Fprintf(w, "\t%s %d", textName(v.Type().Field(i)), f.Uint())
			}
		}
		if r, ok := v.Interface().(interface{ HitRate() float64 }); ok {
			fmt.Fprintf(w, "\thit-rate %.4f", r.HitRate())
		}
		fmt.Fprintln(w)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() != reflect.Uint64 && f.Kind() != reflect.Int {
				text(w, indent+"  ", textName(v.Type().Field(i)), f)
			}
		}
	}
}
