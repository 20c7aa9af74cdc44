package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9.5 samples above the median
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10_000, 0.999, true},
		{99_999, 0.999, true},
		{100_000, 0.9999, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileFallsBackAndCountsSamples(t *testing.T) {
	sorted := make([]uint32, 500)
	for i := range sorted {
		sorted[i] = uint32(i)
	}
	v, used, n := percentile(sorted, 0.99)
	if used != 0.9 || n != 500 || v != 450 {
		t.Errorf("p99 of 500 samples: value %v at p%v over %d; want 450 at p0.9 over 500", v, used, n)
	}
	v, used, _ = percentile(sorted, 0.5)
	if used != 0.5 || v != 250 {
		t.Errorf("p50 of 500 samples: value %v at p%v; want 250 at p0.5", v, used)
	}
	if _, _, n := percentile(nil, 0.5); n != 0 {
		t.Errorf("empty input reported %d samples", n)
	}
}

func TestMedianOverSlices(t *testing.T) {
	rr := runResult{slices: []map[string]float64{
		{"cmds_per_s": 90, "p50_us": 5, "server.queue_max": 3},
		{"cmds_per_s": 100, "p50_us": 9, "server.queue_max": 16},
		{"cmds_per_s": 110, "p50_us": 7, "server.queue_max": 4},
	}}
	rr.aggregate()
	for name, want := range map[string]float64{
		"cmds_per_s":          100,
		"p50_us":              7,
		"server.queue_max":    16,  // a high-water mark: the maximum, not the median
		"client.slice_spread": 0.2, // (110 − 90) ÷ 100
	} {
		if got := rr.medians[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestMedianCI(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	// 0.98·√100 rounds up to 10 ranks either side of rank 50: 41 … 61.
	if med, half := medianCI(vs); med != 50.5 || half != 10 {
		t.Errorf("medianCI(1…100) = %v ± %v, want 50.5 ± 10", med, half)
	}
	if med, half := medianCI([]float64{7}); med != 7 || half != 0 {
		t.Errorf("medianCI of one sample = %v ± %v, want 7 ± 0", med, half)
	}
}

// TestHostClockMetricsAreTakenAtReferenceSpeed: a window measured while the
// host ran at half speed counts double, so two windows that did the same
// work per unit of host speed report the same figures.
func TestHostClockMetricsAreTakenAtReferenceSpeed(t *testing.T) {
	empty := mark{snap: &stats.Snapshot{}}
	r := sliceResult{a: empty, b: empty, setup: 2 * time.Second, setupSpeed: 0.5, windows: []window{
		{elapsed: time.Second, cpu: time.Second, cmds: 1000, p50: 4000, speed: 1},
		{elapsed: time.Second, cpu: time.Second, cmds: 500, p50: 8000, speed: 0.5},
		{elapsed: time.Second, cpu: time.Second, cmds: 2000, p50: 2000, speed: 2},
	}}
	r.tally.attempted = 3500
	m := r.metrics()
	for name, want := range map[string]float64{
		"cmds_per_s":            1000,
		"p50_us":                4,
		"cpu_us_per_cmd":        1000,
		"setup_s":               1,
		"client.host_speed":     1,
		"client.raw_cmds_per_s": 3500.0 / 3,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildSpansPerRequest(t *testing.T) {
	tr := newTracer(16)
	at := func(ns int) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	// Two requests. The rungs ran at different times; only the request
	// index ties their spans together.
	tr.add(rungStore, 0, at(0), at(30))
	tr.add(rungStore, 1, at(30), at(90))
	tr.add(rungURPC, 0, at(100), at(110))
	tr.add(rungURPC, 1, at(110), at(115))
	tr.add(rungSubmit, 0, at(200), at(300))
	tr.add(rungSubmit, 1, at(300), at(500))
	self := selfTimes(tr.durations(rungSubmit), tr.durations(rungStore), tr.durations(rungURPC))
	if len(self) != 2 || self[0] != 60 || self[1] != 135 {
		t.Errorf("self times = %v, want [60 135]", self)
	}
	if got := trimmedMean(self); got != 97.5 {
		t.Errorf("trimmed mean of two samples = %v, want the plain mean 97.5", got)
	}
}

func wireOf(s *stream) []byte { return bytes.Join(s.wire, nil) }

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		if w.direct {
			a, b, c := newStream(w, 7, 0), newStream(w, 7, 0), newStream(w, 8, 0)
			if !opsEqual(a.ops, b.ops) {
				t.Errorf("%s: same seed gave different commands", w.name)
			}
			if opsEqual(a.ops, c.ops) {
				t.Errorf("%s: different seeds gave the same commands", w.name)
			}
			continue
		}
		a, b, c := wireOf(newStream(w, 7, 0)), wireOf(newStream(w, 7, 0)), wireOf(newStream(w, 8, 0))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different bytes", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same bytes", w.name)
		}
		if bytes.Equal(a, wireOf(newStream(w, 7, 1))) {
			t.Errorf("%s: both connections send the same bytes", w.name)
		}
	}
}

func opsEqual(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReadonlyConnectionSendsNoWrites(t *testing.T) {
	w, _ := workloadByName("serve-mixed")
	sets := func(s *stream) (n int) {
		for _, o := range s.ops {
			if o.kind == opSet {
				n++
			}
		}
		return n
	}
	if n := sets(newStream(w, 1, 1)); n != 0 {
		t.Errorf("READONLY connection's stream holds %d SETs", n)
	}
	if n := sets(newStream(w, 1, 0)); n < streamLen/3 {
		t.Errorf("READWRITE connection's stream holds only %d SETs of %d commands at a 40 %% share", n, streamLen)
	}
}

// oneByte hands its data over one byte per Read, the worst case for a
// reader that parses in place.
type oneByte struct{ data []byte }

func (o *oneByte) Read(p []byte) (int, error) {
	if len(o.data) == 0 {
		return 0, os.ErrClosed
	}
	p[0] = o.data[0]
	o.data = o.data[1:]
	return 1, nil
}

func TestReplyVerification(t *testing.T) {
	w, _ := workloadByName("serve-mixed")
	s := newStream(w, 1, 0)
	val := func(k uint16) []byte {
		b := make([]byte, w.valueSize)
		fillValue(b, s.words[k])
		return b
	}
	get := op{kind: opGet, keys: [mgetKeys]uint16{5}}
	mget := op{kind: opMGet, keys: [mgetKeys]uint16{1, 2, 3, 4, 5, 6, 7, 8}}
	var mvals [][]byte
	for _, k := range mget.keys {
		mvals = append(mvals, val(k))
	}
	other := newStream(w, 1, 1) // the other tenant's view of the same keys
	otherVal := make([]byte, w.valueSize)
	fillValue(otherVal, other.words[5])

	cases := []struct {
		name string
		o    op
		resp []byte
		want verdict
	}{
		{"GET value", get, redis.EncodeBulk(val(5)), replyOK},
		{"GET nil", get, redis.EncodeBulk(nil), replyMismatch},
		{"GET another key's value", get, redis.EncodeBulk(val(6)), replyMismatch},
		{"GET another tenant's value", get, redis.EncodeBulk(otherVal), replyMismatch},
		{"GET truncated value", get, redis.EncodeBulk(val(5)[:100]), replyMismatch},
		{"GET refused", get, redis.EncodeBusy("queue full"), replyRefused},
		{"SET ok", op{kind: opSet}, redis.EncodeSimple("OK"), replyOK},
		{"SET refused", op{kind: opSet}, redis.EncodeQuota("over"), replyRefused},
		{"MGET values", mget, redis.EncodeArray(mvals), replyOK},
		{"MGET short", mget, redis.EncodeArray(mvals[:7]), replyMismatch},
		{"MGET one nil", mget, redis.EncodeArray(append(append([][]byte{}, mvals[:7]...), nil)), replyMismatch},
	}
	for _, c := range cases {
		if got := verifyBytes(s, c.o, c.resp); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}

	// Replies split at every byte boundary parse the same, back to back.
	var all []byte
	for _, c := range cases {
		all = append(all, c.resp...)
	}
	rr := newReplyReader(&oneByte{data: all})
	for _, c := range cases {
		got, err := rr.verify(s, c.o)
		if err != nil || got != c.want {
			t.Errorf("%s, byte at a time: verdict %d (%v), want %d", c.name, got, err, c.want)
		}
	}
}

// TestQuickStoreDirect is the in-process smoke run: no command fails, and
// the simulated clock repeats exactly for a seed.
func TestQuickStoreDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("boots and preloads the 64 Ki-key store twice")
	}
	w, _ := workloadByName("store-direct")
	cfg := runConfig{slices: 1, measure: time.Second, simK: 2000}
	var cycles [2]float64
	for i := range cycles {
		res, err := timedSet([]workload{w}, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		rr := res[w.name]
		if rr.attempted < uint64(cfg.simK) {
			t.Fatalf("only %d commands ran in %v; the simulated-cycle figure needs %d", rr.attempted, cfg.measure, cfg.simK)
		}
		if rr.failed() != 0 || rr.medians["client.failed_share"] != 0 {
			t.Errorf("run %d: %d of %d commands failed", i, rr.failed(), rr.attempted)
		}
		cycles[i] = rr.medians["sim_cycles_per_cmd"]
	}
	if cycles[0] != cycles[1] || cycles[0] == 0 {
		t.Errorf("sim_cycles_per_cmd = %v then %v; want identical and non-zero", cycles[0], cycles[1])
	}
}

// TestFailedTracedRunEndsWithResultLine holds driverRun to the driver's
// contract when the traced run fails (here the trace file cannot be written,
// because the checkout root is a regular file): exit code 1, and a last line
// of standard output that says correct=false.
func TestFailedTracedRunEndsWithResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("boots serve-vas five times")
	}
	root := filepath.Join(t.TempDir(), "root")
	if err := os.WriteFile(root, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("serve-vas")
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	captured := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(pr)
		captured <- out
	}()
	stdout := os.Stdout
	os.Stdout = pw
	code := driverRun(root, w, 1, 1, true)
	os.Stdout = stdout
	pw.Close()
	lines := bytes.Split(bytes.TrimSpace(<-captured), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line %q is not a result: %v", lines[len(lines)-1], err)
	}
	if code != 1 || res.Correct || res.Attempted == 0 || len(res.Metrics) != 0 {
		t.Errorf("exit code %d, result %+v; want 1 and correct=false with the commands counted and no metrics", code, res)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// from drifting apart: the driver refuses a run whose output lacks a metric
// the file names.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d: file says %q, benchmark says %q", i, file.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: file lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: file says %+v, benchmark says %s %s %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in file %v, in benchmark %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
