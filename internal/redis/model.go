package redis

import (
	"fmt"

	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
)

// Figure 10 reproduction. Per-operation costs are measured by running real
// clients on simulated cores (actual VAS switches, MMU-mediated hash-table
// walks, modeled sockets); throughput across client counts then follows a
// closed-loop saturation model, because the paper runs up to 100 clients
// on a 12-core machine — more clients than cores — which a 1:1
// client-per-core simulation cannot express.

// Costs are measured per-operation cycle counts.
type Costs struct {
	JmpGet        float64 // RedisJMP client cycles per GET
	JmpSet        float64 // RedisJMP client cycles per SET
	JmpSetCS      float64 // cycles the exclusive lock is held per SET
	BaseClient    float64 // baseline client-side cycles per GET
	BaseServer    float64 // baseline server-side cycles per GET
	BaseSetServer float64 // baseline server-side cycles per SET
	GHz           float64
	Cores         int
}

// lockContention approximates cache-line ping-pong on the reader-writer
// lock word and the shared table's hot lines per additional *concurrently
// executing* client (capped at the core count) — the "synchronization
// overhead limits scalability" effect of §5.3 that keeps the paper's
// full-load RedisJMP only ~36% above six independent Redis instances.
const lockContention = 950.0

// lockHandoff models blocking writer-lock handoff between clients (futex
// style sleep/wake) once SETs contend, serializing more than the critical
// section alone.
const lockHandoff = 8000.0

// keyCount and valSize follow redis-benchmark defaults (4-byte payload).
const (
	keyCount = 1000
	valSize  = 4
)

func key(i int) string { return fmt.Sprintf("key:%06d", i%keyCount) }

// MeasureCosts boots a machine, runs real RedisJMP and baseline clients,
// and returns per-op costs. With tags enabled the VASes and client
// primaries are TLB-tagged.
func MeasureCosts(mcfg hw.MachineConfig, tags bool, segSize uint64) (Costs, error) {
	m := hw.NewMachine(mcfg)
	sys := kernel.New(m)
	newProcess := sys.NewProcess
	if tags {
		newProcess = sys.NewTaggedProcess
	}
	proc, err := newProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return Costs{}, err
	}
	th, err := proc.NewThread()
	if err != nil {
		return Costs{}, err
	}
	client, err := NewClient(th, segSize)
	if err != nil {
		return Costs{}, err
	}
	if tags {
		if err := client.EnableTags(); err != nil {
			return Costs{}, err
		}
	}
	// Preload the working set and warm the TLB/lock paths.
	val := make([]byte, valSize)
	for i := 0; i < keyCount; i++ {
		if err := client.Set(key(i), val); err != nil {
			return Costs{}, err
		}
	}
	const reps = 2000
	c := Costs{GHz: mcfg.GHz, Cores: mcfg.Sockets * mcfg.CoresPerSocket}

	before := th.Core.Cycles()
	for i := 0; i < reps; i++ {
		if _, ok, err := client.Get(key(i)); err != nil || !ok {
			return Costs{}, fmt.Errorf("measured GET failed: ok=%v err=%v", ok, err)
		}
	}
	c.JmpGet = float64(th.Core.Cycles()-before) / reps

	before = th.Core.Cycles()
	for i := 0; i < reps; i++ {
		if err := client.Set(key(i), val); err != nil {
			return Costs{}, err
		}
	}
	c.JmpSet = float64(th.Core.Cycles()-before) / reps
	// The exclusive section spans from lock acquisition (inside the
	// inbound switch) to release (inside the outbound switch): everything
	// but the client-local parse.
	c.JmpSetCS = c.JmpSet - parseCycles

	// Baseline: server pinned to the last core, client on another.
	server := NewBaselineServer(m.Cores[c.Cores-1])
	bc := NewBaselineClient(m.Cores[c.Cores-2], server)
	for i := 0; i < keyCount; i++ {
		if err := bc.Set(key(i), val); err != nil {
			return Costs{}, err
		}
	}
	clientBefore := bc.core.Cycles()
	serverBefore := server.core.Cycles()
	for i := 0; i < reps; i++ {
		if _, ok, err := bc.Get(key(i)); err != nil || !ok {
			return Costs{}, fmt.Errorf("baseline GET failed: ok=%v err=%v", ok, err)
		}
	}
	c.BaseServer = float64(server.core.Cycles()-serverBefore) / reps
	// The client's own work excludes the blocked-on-server portion.
	c.BaseClient = float64(bc.core.Cycles()-clientBefore)/reps - c.BaseServer

	serverBefore = server.core.Cycles()
	for i := 0; i < reps; i++ {
		if err := bc.Set(key(i), val); err != nil {
			return Costs{}, err
		}
	}
	c.BaseSetServer = float64(server.core.Cycles()-serverBefore) / reps
	return c, nil
}

// Point is one (clients, requests/second) sample of a Figure 10 series.
type Point struct {
	Clients int
	RPS     float64
}

func (c Costs) seconds(cycles float64) float64 { return cycles / (c.GHz * 1e9) }

// concurrent bounds the number of clients executing simultaneously.
func (c Costs) concurrent(k int) int {
	if k > c.Cores {
		return c.Cores
	}
	return k
}

// closedLoop returns the throughput of k closed-loop clients each paying
// perClient cycles of their own work per request, contending for a shared
// serial resource of serial cycles per request, with at most cores
// executing concurrently.
func (c Costs) closedLoop(k int, perClient, serial float64, cores int) float64 {
	if k <= 0 {
		return 0
	}
	perReq := perClient + serial
	concurrency := float64(k)
	if concurrency > float64(cores) {
		concurrency = float64(cores)
	}
	offered := concurrency / c.seconds(perReq)
	if serial > 0 {
		capX := 1 / c.seconds(serial)
		if offered > capX {
			return capX
		}
	}
	return offered
}

// GetSeries reproduces one Figure 10a curve for RedisJMP.
func (c Costs) GetSeries(clients []int) []Point {
	out := make([]Point, len(clients))
	for i, k := range clients {
		// Readers share the lock; contention grows with the number of
		// cores actually hammering it.
		perClient := c.JmpGet + lockContention*float64(c.concurrent(k)-1)
		out[i] = Point{k, c.closedLoop(k, perClient, 0, c.Cores)}
	}
	return out
}

// BaselineGetSeries reproduces Figure 10a's single-instance Redis curve.
// instances > 1 models the "Redis 6x" configuration (one server core per
// instance, clients spread across them).
func (c Costs) BaselineGetSeries(clients []int, instances int) []Point {
	out := make([]Point, len(clients))
	clientCores := c.Cores - instances
	if clientCores < 1 {
		clientCores = 1
	}
	for i, k := range clients {
		used := instances
		if k < instances {
			used = k
		}
		perInstance := (k + used - 1) / used
		x := c.closedLoop(perInstance, c.BaseClient, c.BaseServer, clientCores)
		out[i] = Point{k, x * float64(used)}
	}
	return out
}

// SetSeries reproduces Figure 10b: RedisJMP SETs serialized by the
// exclusive segment lock.
func (c Costs) SetSeries(clients []int) []Point {
	out := make([]Point, len(clients))
	for i, k := range clients {
		perClient := c.JmpSet - c.JmpSetCS // local parse work
		serial := c.JmpSetCS
		if k > 1 {
			serial += lockHandoff
		}
		out[i] = Point{k, c.closedLoop(k, perClient, serial+lockContention*float64(c.concurrent(k)-1), c.Cores)}
	}
	return out
}

// BaselineSetSeries is the baseline SET curve: server-serialized like GET
// but with the heavier mutation path.
func (c Costs) BaselineSetSeries(clients []int) []Point {
	out := make([]Point, len(clients))
	for i, k := range clients {
		out[i] = Point{k, c.closedLoop(k, c.BaseClient, c.BaseSetServer, c.Cores-1)}
	}
	return out
}

// MixSeries reproduces Figure 10c: total throughput at a fixed client
// count while the SET percentage sweeps 0–100.
func (c Costs) MixSeries(clients int, setPct []int) []Point {
	out := make([]Point, len(setPct))
	for i, pct := range setPct {
		p := float64(pct) / 100
		conc := float64(c.concurrent(clients) - 1)
		perClient := (1-p)*(c.JmpGet+lockContention*conc) + p*(c.JmpSet-c.JmpSetCS)
		handoff := 0.0
		if clients > 1 && p > 0 {
			handoff = lockHandoff
		}
		serial := p * (c.JmpSetCS + handoff + lockContention*conc)
		out[i] = Point{pct, c.closedLoop(clients, perClient, serial, c.Cores)}
	}
	return out
}

// BaselineMixSeries is Figure 10c's baseline curve: the single server
// serializes everything, with the per-request service time weighted by the
// SET share's heavier path.
func (c Costs) BaselineMixSeries(clients int, setPct []int) []Point {
	out := make([]Point, len(setPct))
	for i, pct := range setPct {
		p := float64(pct) / 100
		server := (1-p)*c.BaseServer + p*c.BaseSetServer
		out[i] = Point{pct, c.closedLoop(clients, c.BaseClient, server, c.Cores-1)}
	}
	return out
}
