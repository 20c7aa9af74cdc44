package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/hw"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/urpc"
)

// The traced run replays the head of connection 0's stream serially at each
// layer boundary, one span per call. Spans of one stream index line up
// across rungs, so a rung's self time for a request is its span minus the
// spans of the rungs below it for the same request.

type rung uint8

const (
	rungParse  rung = iota // redis.ReadCommand on the encoded stream
	rungStore              // redis.Execute on one thread's client: Get/Set/MGet plus reply encoding
	rungURPC               // urpc.Endpoint.Call, echo handler, the command's request and reply sizes
	rungSubmit             // Router.Submit + Request.Wait, no TCP
	rungRTT                // one loopback connection, depth 1
	rungPipe               // one loopback connection, depth 16; one span per batch
	numRungs
)

var rungNames = [numRungs]string{
	"redis.parse", "redis.store", "urpc.call", "cluster.submit", "server.rtt", "server.pipelined",
}

// rungParents names the rung whose span would enclose this one in a live
// request; the two connection rungs are roots.
var rungParents = [numRungs]string{
	"server.rtt", "cluster.submit", "cluster.submit", "server.rtt", "", "",
}

type span struct {
	rung       rung
	request    int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a preallocated buffer and writes them out when the
// benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) add(r rung, request int, start, end time.Time) {
	t.spans = append(t.spans, span{r, int32(request), int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
}

// durations returns rung r's span lengths in request order.
func (t *tracer) durations(r rung) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.rung == r {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write stores the spans as a JSON array, one object per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	line := make([]byte, 0, 160)
	for i, s := range t.spans {
		line = line[:0]
		if i == 0 {
			line = append(line, "[\n"...)
		} else {
			line = append(line, ",\n"...)
		}
		line = append(line, `{"name":"`...)
		line = append(line, rungNames[s.rung]...)
		line = append(line, `","request":`...)
		line = strconv.AppendInt(line, int64(s.request), 10)
		line = append(line, `,"parent":"`...)
		line = append(line, rungParents[s.rung]...)
		line = append(line, `","start":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '}')
		bw.Write(line)
	}
	bw.WriteString("\n]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunkReader serves a sequence of byte slices as one stream.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladder is one workload's traced run.
type ladder struct {
	w    workload
	seed int64
	s    *stream
	n    int // commands replayed per rung; a multiple of pipelineDepth
	argv [][]string
	tr   *tracer
	out  map[string]float64
	tally
}

func newLadder(w workload, seed int64, n int) *ladder {
	n -= n % pipelineDepth
	l := &ladder{w: w, seed: seed, s: newStream(w, seed, 0), n: n, out: map[string]float64{}}
	l.tr = newTracer(int(numRungs) * n)
	l.argv = make([][]string, n)
	for i := range l.argv {
		l.argv[i] = l.s.args(i)
	}
	return l
}

// parseRung replays the encoded stream through the server's RESP parser.
func (l *ladder) parseRung() error {
	if l.w.direct {
		return nil // no wire format on this workload
	}
	br := bufio.NewReader(&chunkReader{chunks: append([][]byte(nil), l.s.wire[:l.n]...)})
	m0 := mallocs()
	for i := 0; i < l.n; i++ {
		t0 := time.Now()
		args, err := redis.ReadCommand(br)
		t1 := time.Now()
		if err != nil || len(args) != len(l.argv[i]) {
			return fmt.Errorf("ReadCommand %d: %d args, %v", i, len(args), err)
		}
		l.tr.add(rungParse, i, t0, t1)
	}
	l.out["redis.parse_allocs_per_cmd"] = float64(mallocs()-m0) / float64(l.n)
	l.out["redis.parse_ns_per_cmd"] = trimmedMean(l.tr.durations(rungParse))
	return nil
}

// paired times a and b once per index, alternating which goes first so that
// neither side always finds the caches warm, and returns a[i] − b[i]. The
// two calls of a pair run within microseconds of each other, so the host's
// wandering speed, a fork or a GC cycle lands on both or on neither far more
// often than on one; callers take the median of the differences and report
// its confidence interval beside it.
func paired(n int, a, b func(i int) error) (diffs, bs []float64, err error) {
	diffs, bs = make([]float64, n), make([]float64, n)
	timed := func(fn func(int) error, i int) float64 {
		t0 := time.Now()
		if ferr := fn(i); ferr != nil && err == nil {
			err = ferr
		}
		return float64(time.Since(t0))
	}
	for i := 0; i < n && err == nil; i++ {
		var ta, tb float64
		if i%2 == 0 {
			ta = timed(a, i)
			tb = timed(b, i)
		} else {
			tb = timed(b, i)
			ta = timed(a, i)
		}
		diffs[i], bs[i] = ta-tb, tb
	}
	return diffs, bs, err
}

// preloadDirect writes every key of the ladder's view into a lone store.
func (l *ladder) preloadDirect(st *stack) error {
	val := make([]byte, l.w.valueSize)
	for k, key := range l.s.names {
		fillValue(val, l.s.words[k])
		if l.s.tenantID != "" {
			key = redis.TenantKey(l.s.tenantID, key)
		}
		if err := st.client.Set(key, val); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// execOn runs command i on a lone store and verifies the reply.
func (l *ladder) execOn(st *stack) func(i int) error {
	return func(i int) error {
		l.count(verifyBytes(l.s, l.s.ops[i], redis.Execute(st.client, l.argv[i])))
		return nil
	}
}

// storeRung replays the stream against one client on one thread, then
// repeats it paired with a second store whose machine has no stats sink:
// the ratio prices the sink.
func (l *ladder) storeRung() error {
	on, err := bootDirect(l.w, true)
	if err != nil {
		return err
	}
	off, err := bootDirect(l.w, false)
	if err != nil {
		return err
	}
	if err := errors.Join(l.preloadDirect(on), l.preloadDirect(off)); err != nil {
		return err
	}
	exec, execOff := l.execOn(on), l.execOn(off)
	// One untimed pass first: a fresh machine materializes simulated frames
	// and grows its tables as commands first touch them, and a timed pass
	// that paid for that would overstate every layer above the store.
	for i := 0; i < l.n; i++ {
		exec(i)
		execOff(i)
	}
	c0 := simCycles(on.sys.Stats())
	m0 := mallocs()
	for i := 0; i < l.n; i++ {
		t0 := time.Now()
		exec(i)
		l.tr.add(rungStore, i, t0, time.Now())
	}
	l.out["redis.store_allocs_per_cmd"] = float64(mallocs()-m0) / float64(l.n)
	l.out["redis.store_sim_cycles_per_cmd"] = float64(simCycles(on.sys.Stats())-c0) / float64(l.n)
	l.out["redis.store_ns_per_cmd"] = trimmedMean(l.tr.durations(rungStore))

	extra, without, _ := paired(l.n, exec, execOff)
	med, half := medianCI(extra)
	l.out["stats.overhead_ratio"] = 1 + ratio(med, median(without))
	l.out["stats.overhead_ratio_ci"] = ratio(half, median(without))
	return errors.Join(on.shutdown(), off.shutdown())
}

// urpcRung moves each command's request and reply sizes across a same-socket
// urpc channel with an echo handler: the transport alone, no store behind it.
func (l *ladder) urpcRung() error {
	m := hw.NewMachine(hw.M1())
	m.EnableStats(0)
	reply := make([]byte, mgetKeys*(l.w.valueSize+16)) // at least the largest reply
	cur := 0
	// Router workers claim cores 0-1 and remote nodes the cores after them,
	// all on socket 0; 0 → 2 is the channel the cluster would build.
	ep := urpc.Connect(m, 0, 2, 256, func([]byte) []byte { return reply[:l.s.replySize(cur)] })
	c0 := ep.ClientCore().Cycles()
	m0 := mallocs()
	for i := 0; i < l.n; i++ {
		cur = i
		t0 := time.Now()
		resp, err := ep.Call(l.s.wire[i])
		t1 := time.Now()
		if err != nil || len(resp) != l.s.replySize(i) {
			return fmt.Errorf("urpc call %d: %d bytes, %v", i, len(resp), err)
		}
		l.tr.add(rungURPC, i, t0, t1)
	}
	l.out["urpc.call_allocs"] = float64(mallocs()-m0) / float64(l.n)
	l.out["urpc.call_sim_cycles"] = float64(ep.ClientCore().Cycles()-c0) / float64(l.n)
	l.out["urpc.call_ns"] = trimmedMean(l.tr.durations(rungURPC))
	return nil
}

// submit hands command i to the router as the connection layer would, minus
// the connection, waits for the reply and verifies it.
func (l *ladder) submit(st *stack, deadlineCycles uint64) func(i int) error {
	return func(i int) error {
		req := server.NewRequest(l.argv[i])
		req.Deadline = deadlineCycles
		if !st.router.Submit(1, req) {
			return fmt.Errorf("submit %d: router busy", i)
		}
		l.count(verifyBytes(l.s, l.s.ops[i], req.Wait()))
		return nil
	}
}

// connRung replays the stream over one loopback connection at the given
// depth, one span per batch, and returns nanoseconds per command per batch.
func (l *ladder) connRung(g *connGen, r rung, depth int) ([]float64, error) {
	g.pos = 0
	ds := make([]float64, 0, l.n/depth)
	for i := 0; i < l.n; i += depth {
		t0 := time.Now()
		if err := g.batch(depth, true); err != nil {
			return nil, err
		}
		t1 := time.Now()
		l.tr.add(r, i, t0, t1)
		ds = append(ds, float64(t1.Sub(t0))/float64(depth))
	}
	return ds, nil
}

// remoteCalls counts the urpc round trips the router makes for op i: one
// per distinct remote node among the owners of its keys.
func (l *ladder) remoteCalls(st *stack, topo []cluster.NodeInfo, i int) float64 {
	seen := map[int]bool{}
	o := l.s.ops[i]
	for k := 0; k < o.nkeys(); k++ {
		key := l.argv[i][1+k]
		if n := st.router.Owner(st.router.Slot(key)); !topo[n].Local {
			seen[n] = true
		}
	}
	return float64(len(seen))
}

// served is a booted full stack with one connection to it, preloaded and
// warmed by one untimed pass over the first n commands (see storeRung).
type served struct {
	st *stack
	g  *connGen
}

func serve(w workload, s *stream, n int) (*served, error) {
	st, err := bootServer(w)
	if err != nil {
		return nil, err
	}
	g, err := dialGen(st.addr(), s)
	if err != nil {
		return nil, errors.Join(err, st.shutdown())
	}
	sv := &served{st, g}
	err = g.preload()
	for i := 0; i < n && err == nil; i += pipelineDepth {
		err = g.batch(pipelineDepth, true)
	}
	if err != nil {
		return nil, errors.Join(err, sv.close(&tally{}))
	}
	return sv, nil
}

// close folds the connection's verification counts into t and tears down.
func (sv *served) close(t *tally) error {
	t.attempted += sv.g.attempted
	t.refused += sv.g.refused
	t.mismatched += sv.g.mismatched
	sv.g.nc.Close()
	return sv.st.shutdown()
}

// serverRungs boots the full stack once and climbs the top three rungs on
// it: router without TCP, then one connection at depth 1 and depth 16.
func (l *ladder) serverRungs() error {
	sv, err := serve(l.w, l.s, l.n)
	if err != nil {
		return err
	}
	err = l.onServer(sv)
	return errors.Join(err, sv.close(&l.tally))
}

func (l *ladder) onServer(sv *served) error {
	st := sv.st
	var budget uint64
	if l.w.mixed {
		budget = overload.Cycles(deadline, st.m.Cfg.GHz)
	}
	submit := l.submit(st, budget)
	m0 := mallocs()
	for i := 0; i < l.n; i++ {
		t0 := time.Now()
		if err := submit(i); err != nil {
			return err
		}
		l.tr.add(rungSubmit, i, t0, time.Now())
	}
	submitAllocs := float64(mallocs()-m0) / float64(l.n)
	spans := l.tr.durations(rungSubmit)
	l.out["cluster.submit_allocs_per_cmd"] = submitAllocs
	l.out["cluster.submit_ns_per_cmd"] = trimmedMean(spans)

	// Self time of the router: its span minus the store work and the urpc
	// transport it contains, request by request.
	children := [][]float64{l.tr.durations(rungStore)}
	if calls := l.tr.durations(rungURPC); len(calls) > 0 {
		topo := st.router.Topology()
		for i := range calls {
			calls[i] *= l.remoteCalls(st, topo, i)
		}
		children = append(children, calls)
	}
	l.out["cluster.self_ns_per_cmd"] = trimmedMean(selfTimes(spans, children...))

	if budget != 0 {
		// The same rung with the feature off prices the deadline budget.
		extra, _, err := paired(l.n, submit, l.submit(st, 0))
		if err != nil {
			return err
		}
		l.out["overload.deadline_overhead_ns_per_cmd"], l.out["overload.deadline_overhead_ci_ns"] = medianCI(extra)
	}

	m0 = mallocs()
	rtt, err := l.connRung(sv.g, rungRTT, 1)
	if err != nil {
		return err
	}
	l.out["server.allocs_per_cmd"] = float64(mallocs()-m0)/float64(l.n) - submitAllocs
	l.out["server.rtt_ns_per_cmd"] = trimmedMean(rtt)
	l.out["server.self_ns_per_cmd"] = trimmedMean(selfTimes(rtt, spans, l.tr.durations(rungParse)))

	pipe, err := l.connRung(sv.g, rungPipe, pipelineDepth)
	if err != nil {
		return err
	}
	l.out["server.pipelined_ns_per_cmd"] = trimmedMean(pipe)

	if l.w.tenants {
		if err := l.tenantOverhead(sv.g); err != nil {
			return fmt.Errorf("tenant-off rung: %w", err)
		}
	}
	return nil
}

// tenantOverhead boots the workload a second time without its tenant
// registry and repeats the pipelined rung on both stacks, paired: on minus
// off prices AUTH-scoped key rewriting, capability caching and quota
// accounting.
func (l *ladder) tenantOverhead(on *connGen) error {
	w := l.w
	w.tenants = false
	sv, err := serve(w, newStream(w, l.seed, 0), l.n) // same seed: same commands, unqualified keys
	if err != nil {
		return err
	}
	on.pos, sv.g.pos = 0, 0
	batch := func(g *connGen) func(int) error {
		return func(int) error { return g.batch(pipelineDepth, true) }
	}
	extra, _, err := paired(l.n/pipelineDepth, batch(on), batch(sv.g))
	med, half := medianCI(extra)
	l.out["tenant.overhead_ns_per_cmd"] = med / pipelineDepth
	l.out["tenant.overhead_ci_ns"] = half / pipelineDepth
	return errors.Join(err, sv.close(&l.tally))
}

// run climbs the ladder bottom-up and writes the trace file.
func (l *ladder) run(tracePath string) error {
	if err := l.parseRung(); err != nil {
		return fmt.Errorf("parse rung: %w", err)
	}
	if err := l.storeRung(); err != nil {
		return fmt.Errorf("store rung: %w", err)
	}
	if !l.w.direct {
		if l.w.mode != cluster.ModeVAS {
			if err := l.urpcRung(); err != nil {
				return fmt.Errorf("urpc rung: %w", err)
			}
		}
		if err := l.serverRungs(); err != nil {
			return fmt.Errorf("server rungs: %w", err)
		}
	}
	return l.tr.write(tracePath)
}
