package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
)

// runConfig is the shape of one timed run. The slice count and workload
// list are fixed by the issue; only the slice length follows the time cap.
type runConfig struct {
	slices  int
	measure time.Duration // measured time per slice
	warm    time.Duration // unmeasured warm-up per slice (serve workloads)
	simK    int           // store-direct: commands the simulated-cycle figure is taken over
	ladder  int           // commands the traced run replays per rung
}

const (
	fullSlices = 5
	// directWarmOps is store-direct's warm-up, a command count so that the
	// simulated machine is in the same state when measurement starts on
	// every run of a seed.
	directWarmOps = 1 << 15
	latencyCap    = 1 << 20 // per-connection latency samples kept per slice
	// forkWait is how long serve-mixed's warm-up waits for the first ship
	// after the preload (the ship interval is 200 ms).
	forkWait = 15 * time.Second
)

func fullConfig(seconds int) runConfig {
	return runConfig{
		slices:  fullSlices,
		measure: time.Duration(seconds) * time.Second / fullSlices,
		warm:    500 * time.Millisecond,
		simK:    100_000,
		ladder:  20_000,
	}
}

var quickConfig = runConfig{slices: 1, measure: 2 * time.Second, warm: 300 * time.Millisecond, simK: 20_000, ladder: 2000}

// tally counts what one generator sent and how the replies verified.
type tally struct {
	attempted, refused, mismatched uint64
	lat                            []uint32 // ns, verified commands only
	latKind                        []opKind
}

func (t *tally) failed() uint64 { return t.refused + t.mismatched }

// count tallies one verified reply without a latency sample.
func (t *tally) count(v verdict) {
	t.attempted++
	switch v {
	case replyRefused:
		t.refused++
	case replyMismatch:
		t.mismatched++
	}
}

func (t *tally) record(v verdict, kind opKind, lat time.Duration) {
	t.count(v)
	if v == replyOK && len(t.lat) < latencyCap {
		t.lat = append(t.lat, uint32(min(lat, time.Duration(^uint32(0)))))
		t.latKind = append(t.latKind, kind)
	}
}

func newTally() tally {
	return tally{lat: make([]uint32, 0, latencyCap), latKind: make([]opKind, 0, latencyCap)}
}

// connGen is one closed-loop connection: write a batch of pipelineDepth
// commands, flush, read and verify pipelineDepth replies, repeat.
type connGen struct {
	s    *stream
	nc   net.Conn
	rr   *replyReader
	wbuf []byte
	pos  int // next stream index; always a multiple of pipelineDepth
	tally
}

func dialGen(addr string, s *stream) (*connGen, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	g := &connGen{s: s, nc: nc, rr: newReplyReader(nc), tally: newTally()}
	if s.tenantID != "" {
		if err := g.expectOK("AUTH", s.tenantID, s.secret); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return g, nil
}

// expectOK sends one command and requires +OK.
func (g *connGen) expectOK(args ...string) error {
	if _, err := g.nc.Write(redis.EncodeCommand(args...)); err != nil {
		return err
	}
	if v, err := g.rr.verify(g.s, op{kind: opSet}); err != nil || v != replyOK {
		return fmt.Errorf("%s: not acknowledged (%v)", args[0], err)
	}
	return nil
}

// preload writes every key of the stream's view once, pipelined.
func (g *connGen) preload() error {
	val := make([]byte, g.s.w.valueSize)
	for k := 0; k < g.s.w.keys; k += pipelineDepth {
		end := min(k+pipelineDepth, g.s.w.keys)
		g.wbuf = g.wbuf[:0]
		for j := k; j < end; j++ {
			fillValue(val, g.s.words[j])
			g.wbuf = append(g.wbuf, redis.EncodeCommand("SET", g.s.names[j], string(val))...)
		}
		if _, err := g.nc.Write(g.wbuf); err != nil {
			return err
		}
		for j := k; j < end; j++ {
			if v, err := g.rr.verify(g.s, op{kind: opSet}); err != nil || v != replyOK {
				return fmt.Errorf("preload SET %s: not acknowledged (%v)", g.s.names[j], err)
			}
		}
	}
	return nil
}

// batch sends the next depth commands as one write and verifies their
// replies. A command's latency is its reply's arrival minus the batch's
// flush.
func (g *connGen) batch(depth int, record bool) error {
	start := g.pos
	g.wbuf = g.wbuf[:0]
	for j := 0; j < depth; j++ {
		g.wbuf = append(g.wbuf, g.s.wire[start+j]...)
	}
	if _, err := g.nc.Write(g.wbuf); err != nil {
		return err
	}
	flushed := time.Now()
	for j := 0; j < depth; j++ {
		o := g.s.ops[start+j]
		v, err := g.rr.verify(g.s, o)
		if err != nil {
			return err
		}
		if record {
			g.record(v, o.kind, g.rr.stamp.Sub(flushed))
		}
	}
	g.pos = (start + depth) % len(g.s.ops)
	return nil
}

// drive runs batches until the deadline passes.
func (g *connGen) drive(until time.Time, record bool) error {
	for time.Now().Before(until) {
		if err := g.batch(pipelineDepth, record); err != nil {
			return err
		}
	}
	return nil
}

// directGen drives a redis.Client on the calling goroutine.
type directGen struct {
	s   *stream
	c   *redis.Client
	val []byte
	pos int
	tally
}

func (g *directGen) preload() error {
	for k, name := range g.s.names {
		fillValue(g.val, g.s.words[k])
		if err := g.c.Set(name, g.val); err != nil {
			return fmt.Errorf("preload SET %s: %w", name, err)
		}
	}
	return nil
}

// exec runs one command against the store and verifies the result.
func (g *directGen) exec(o op) verdict {
	k := o.keys[0]
	switch o.kind {
	case opSet:
		fillValue(g.val, g.s.words[k])
		if g.c.Set(g.s.names[k], g.val) != nil {
			return replyRefused
		}
		return replyOK
	case opGet:
		v, ok, err := g.c.Get(g.s.names[k])
		if err != nil {
			return replyRefused
		}
		if !ok || !valueMatches(v, g.s.words[k], g.s.w.valueSize) {
			return replyMismatch
		}
		return replyOK
	}
	keys := make([]string, mgetKeys)
	for i, key := range o.keys {
		keys[i] = g.s.names[key]
	}
	vals, err := g.c.MGet(keys)
	if err != nil {
		return replyRefused
	}
	for i, v := range vals {
		if !valueMatches(v, g.s.words[o.keys[i]], g.s.w.valueSize) {
			return replyMismatch
		}
	}
	return replyOK
}

func (g *directGen) next() op {
	o := g.s.ops[g.pos]
	g.pos = (g.pos + 1) % len(g.s.ops)
	return o
}

// drive executes commands until the deadline passes, timing each one, and
// calls atK once, after the simK'th measured command.
func (g *directGen) drive(until time.Time, simK int, atK func()) {
	prev := time.Now()
	for prev.Before(until) {
		o := g.next()
		v := g.exec(o)
		now := time.Now()
		g.record(v, o.kind, now.Sub(prev))
		prev = now
		if int(g.attempted) == simK {
			atK()
			prev = time.Now()
		}
	}
}

// mark is the counters sampled at a measurement boundary, with the system
// quiescent (no command in flight).
type mark struct {
	mem    runtime.MemStats
	gcCPU  float64 // seconds
	snap   *stats.Snapshot
	cycles uint64 // Σ over simulated cores
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func simCycles(snap *stats.Snapshot) uint64 {
	var sum uint64
	for _, c := range snap.Cores {
		sum += c.Cycles
	}
	return sum
}

func takeMark(sys *core.System) mark {
	var mk mark
	runtime.ReadMemStats(&mk.mem)
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		mk.gcCPU = gcCPUSample[0].Value.Float64()
	}
	mk.snap = sys.Stats()
	mk.cycles = simCycles(mk.snap)
	return mk
}

// window is one stretch of load between two samples of the host's speed.
type window struct {
	elapsed time.Duration
	cpu     time.Duration // process user+system CPU
	cmds    float64       // verified
	p50     float64       // ns, over the window's verified commands
	speed   float64       // host speed index: geometric mean of the samples before and after
}

// sliceResult is one measured slice.
type sliceResult struct {
	setup      time.Duration
	setupSpeed float64 // host speed index across boot and preload
	a, b       mark
	windows    []window
	simPerCmd  float64
	heapLive   uint64
	tally      tally // merged over connections
}

// measure is the measured phase of a slice: load windows of windowLen, each
// between two samples of the host's speed on procs goroutines, until
// cfg.measure has passed (at least one window). load drives every generator
// until the given time; gens are the generators' tallies, read between
// windows.
func (r *sliceResult) measure(cfg runConfig, procs int, gens []*tally, load func(until time.Time) error) error {
	end := time.Now().Add(cfg.measure)
	speed := hostSpeed(procs)
	var lat []uint32
	for {
		var cmds0 uint64
		from := make([]int, len(gens))
		for i, g := range gens {
			cmds0 += g.attempted - g.failed()
			from[i] = len(g.lat)
		}
		start, cpu0 := time.Now(), processCPU()
		if err := load(start.Add(windowLen)); err != nil {
			return err
		}
		w := window{elapsed: time.Since(start), cpu: processCPU() - cpu0}
		lat = lat[:0]
		for i, g := range gens {
			w.cmds += float64(g.attempted - g.failed())
			lat = append(lat, g.lat[from[i]:]...)
		}
		w.cmds -= float64(cmds0)
		slices.Sort(lat)
		w.p50, _, _ = percentile(lat, 0.5)
		next := hostSpeed(procs)
		w.speed = math.Sqrt(speed * next)
		speed = next
		r.windows = append(r.windows, w)
		if !time.Now().Before(end) {
			return nil
		}
	}
}

func forks(snap *stats.Snapshot) uint64 {
	if snap.Cluster == nil || snap.Cluster.Fork == nil {
		return 0
	}
	return snap.Cluster.Fork.Forks
}

// runSlice boots the workload's stack, preloads, warms up, measures, and
// tears down. streams holds one stream per connection.
func runSlice(w workload, cfg runConfig, streams []*stream) (*sliceResult, error) {
	if w.direct {
		return runDirectSlice(w, cfg, streams[0])
	}
	before := hostSpeed(conns)
	began := time.Now()
	st, err := bootServer(w)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	res, err := serveSlice(st, cfg, streams, began, before)
	if serr := st.shutdown(); serr != nil {
		err = errors.Join(err, serr)
	}
	return res, err
}

func serveSlice(st *stack, cfg runConfig, streams []*stream, began time.Time, before float64) (*sliceResult, error) {
	w := st.w
	gens := make([]*connGen, len(streams))
	defer func() {
		for _, g := range gens {
			if g != nil {
				g.nc.Close()
			}
		}
	}()
	for c, s := range streams {
		g, err := dialGen(st.addr(), s)
		if err != nil {
			return nil, fmt.Errorf("conn %d: %w", c, err)
		}
		gens[c] = g
		// One connection fills a shared keyspace; with tenants, each
		// connection fills its own view.
		if c == 0 || s.tenantID != "" {
			if err := g.preload(); err != nil {
				return nil, fmt.Errorf("conn %d: %w", c, err)
			}
		}
	}
	for c, g := range gens {
		if w.readonly(c) {
			if err := g.expectOK("READONLY"); err != nil {
				return nil, fmt.Errorf("conn %d: %w", c, err)
			}
		}
	}
	res := &sliceResult{setup: time.Since(began)}
	res.setupSpeed = math.Sqrt(before * hostSpeed(conns))

	// Warm-up. A READONLY connection may be served from a frozen fork view
	// taken before the preload finished (the boot-time ship publishes an
	// empty one), and a nil reply would fail verification. So on the
	// follower-read workload the READWRITE connection first drives alone, in
	// short stretches, until its writes have triggered a ship and a fork
	// newer than the preload is published; then all connections warm up
	// together, so that the writes (and with them the ships) never pause
	// while the READONLY connection reads.
	// (The poll reads the sink alone, whose counters are atomic: sys.Stats()
	// would also read the cores' own counters while the workers drive them.)
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	phase := func(c int, until time.Time, record bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = gens[c].drive(until, record)
		}()
	}
	if w.mixed {
		sink := st.m.Observer()
		preloadForks := forks(sink.Snapshot())
		limit := time.Now().Add(forkWait)
		for forks(sink.Snapshot()) == preloadForks {
			if time.Now().After(limit) {
				return nil, fmt.Errorf("no fork view newer than the preload was published within %v", forkWait)
			}
			for c := range gens {
				if !w.readonly(c) {
					phase(c, time.Now().Add(20*time.Millisecond), false)
				}
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	warmEnd := time.Now().Add(cfg.warm)
	for c := range gens {
		phase(c, warmEnd, false)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	tallies := make([]*tally, len(gens))
	for c, g := range gens {
		tallies[c] = &g.tally
	}
	res.a = takeMark(st.sys)
	err := res.measure(cfg, conns, tallies, func(until time.Time) error {
		for c := range gens {
			phase(c, until, true)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	res.b = takeMark(st.sys)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	res.heapLive = restingHeap()
	for _, g := range gens {
		res.tally.merge(&g.tally)
	}
	res.finish()
	return res, nil
}

func runDirectSlice(w workload, cfg runConfig, s *stream) (*sliceResult, error) {
	before := hostSpeed(1)
	began := time.Now()
	st, err := bootDirect(w, true)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	g := &directGen{s: s, c: st.client, val: make([]byte, w.valueSize), tally: newTally()}
	res := &sliceResult{}
	err = func() error {
		if err := g.preload(); err != nil {
			return err
		}
		res.setup = time.Since(began)
		res.setupSpeed = math.Sqrt(before * hostSpeed(1))
		for i := 0; i < directWarmOps; i++ {
			if g.exec(g.next()) != replyOK {
				return errors.New("warm-up: a command failed verification")
			}
		}
		res.a = takeMark(st.sys)
		var atK uint64
		err := res.measure(cfg, 1, []*tally{&g.tally}, func(until time.Time) error {
			g.drive(until, cfg.simK, func() { atK = simCycles(st.sys.Stats()) })
			return nil
		})
		res.b = takeMark(st.sys)
		if err != nil {
			return err
		}
		// Simulated cycles over a fixed command count from a fixed machine
		// state repeat exactly; over the timed window they would vary with
		// where the window happens to end.
		if atK != 0 {
			res.simPerCmd = float64(atK-res.a.cycles) / float64(cfg.simK)
		}
		res.heapLive = heapAfterGC()
		return nil
	}()
	res.tally.merge(&g.tally)
	res.finish()
	if serr := st.shutdown(); serr != nil {
		err = errors.Join(err, serr)
	}
	return res, err
}

// heapAfterGC returns the live heap. (HeapAlloc, not HeapInuse: the spans in
// use also count the holes left by whatever ran earlier in the process, and
// moved 20 % between two sets of the same code.)
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// restingHeap is the smallest of three readings of the live heap 150 ms
// apart. The load has stopped, but on serve-mixed one more background ship
// may be in flight, holding a 16 MiB image for a few milliseconds: single
// readings were 62 MB four times in five and 68–79 MB otherwise.
func restingHeap() uint64 {
	live := heapAfterGC()
	for i := 0; i < 2; i++ {
		time.Sleep(150 * time.Millisecond)
		live = min(live, heapAfterGC())
	}
	return live
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.refused += o.refused
	t.mismatched += o.mismatched
	t.lat = append(t.lat, o.lat...)
	t.latKind = append(t.latKind, o.latKind...)
}

func (r *sliceResult) cmds() float64 { return float64(r.tally.attempted - r.tally.failed()) }

// finish derives what needs both marks.
func (r *sliceResult) finish() {
	if r.simPerCmd == 0 && r.cmds() > 0 {
		r.simPerCmd = float64(r.b.cycles-r.a.cycles) / r.cmds()
	}
}

// kindLatencies returns the sorted latencies of one command kind, or of all
// kinds when all is set.
func (t *tally) kindLatencies(kind opKind, all bool) []uint32 {
	out := make([]uint32, 0, len(t.lat))
	for i, l := range t.lat {
		if all || t.latKind[i] == kind {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}
