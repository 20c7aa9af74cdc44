package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

// deadline is serve-mixed's default per-command budget, converted to
// cycles at the machine's clock exactly as spacejmp-server -deadline does.
const deadline = 50 * time.Millisecond

// staleBound is serve-mixed's follower-read staleness bound. The server's
// default is 500 ms of wall-clock time, which a shared host breaks whenever
// it takes the CPUs away for that long: the READONLY connection is then
// answered -STALE, correctly, and the run fails for a reason that is not the
// program's. Values never change per key, so a stale read verifies like a
// fresh one; the bound is set where only a frozen host reaches it.
const staleBound = 10 * time.Second

// stack is one booted system under test: the simulated machine and either a
// lone RedisJMP client (the direct workload and the ladder's store rung) or
// the clustered RESP server.
type stack struct {
	w    workload
	m    *hw.Machine
	sys  *core.System
	base uint64 // PM.AllocatedBytes() before anything was built

	srv    *server.Server
	router *cluster.Router

	proc   *core.Process
	th     *core.Thread
	client *redis.Client
}

// newMachine boots M1 for w. withStats is false only for the ladder's
// sink-on/sink-off comparison.
func newMachine(w workload, withStats bool) (*hw.Machine, *core.System) {
	cfg := hw.M1()
	if w.mixed {
		// Replication rides NVM checkpoint generations (spacejmp-server
		// does the same under -replicate).
		cfg.Mem.NVMSize = 256 << 20
		cfg.Mem.NVMSuperblock = 64 << 20
	}
	m := hw.NewMachine(cfg)
	sys := kernel.New(m)
	if withStats {
		sys.EnableStats(0) // sink on, trace cap 0: what spacejmp-server ships
	}
	return m, sys
}

// bootDirect builds one RedisJMP client on one thread — the paper's §5.3
// client with the server elided.
func bootDirect(w workload, withStats bool) (*stack, error) {
	m, sys := newMachine(w, withStats)
	st := &stack{w: w, m: m, sys: sys, base: m.PM.AllocatedBytes()}
	var err error
	if st.proc, err = sys.NewProcess(core.Creds{UID: 1, GID: 1}); err != nil {
		return nil, err
	}
	if st.th, err = st.proc.NewThread(); err != nil {
		return nil, err
	}
	if st.client, err = redis.NewClient(st.th, w.segSize); err != nil {
		return nil, err
	}
	return st, nil
}

// bootServer builds the full stack: cluster router behind the RESP server
// on a loopback listener.
func bootServer(w workload) (*stack, error) {
	m, sys := newMachine(w, true)
	st := &stack{w: w, m: m, sys: sys, base: m.PM.AllocatedBytes()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srvCfg := server.Config{
		QueueDepth:     64,
		PipelineDepth:  32,
		SegSize:        w.segSize,
		CyclesPerMilli: uint64(m.Cfg.GHz * 1e6),
	}
	clCfg := cluster.Config{
		Nodes:      clusterNodes,
		Workers:    routerWorkers,
		Mode:       w.mode,
		QueueDepth: 64,
		SegSize:    w.segSize,
	}
	if w.mixed {
		clCfg.Replication = cluster.ReplicationConfig{Enabled: true, FollowerReads: true, StaleBound: staleBound}
		srvCfg.DeadlineCycles = overload.Cycles(deadline, m.Cfg.GHz)
		if w.tenants {
			srvCfg.Tenants, err = tenant.NewDemo(demoTenants,
				tenant.Config{Nodes: clusterNodes, Stats: m.Observer()}, tenant.Quotas{})
			if err != nil {
				ln.Close()
				return nil, err
			}
		}
	}
	if st.router, err = cluster.New(sys, clCfg); err != nil {
		ln.Close()
		return nil, err
	}
	st.srv = server.NewWithBackend(sys, ln, srvCfg, st.router)
	return st, nil
}

func (st *stack) addr() string { return st.srv.Addr().String() }

// shutdown tears the stack down and holds it to the repo's own teardown
// contract: Shutdown() == nil and every simulated frame reclaimed.
func (st *stack) shutdown() error {
	var errs error
	if st.srv != nil {
		if err := st.srv.Shutdown(); err != nil {
			errs = errors.Join(errs, fmt.Errorf("shutdown: %w", err))
		}
	}
	if st.client != nil {
		if err := st.client.Close(); err != nil {
			errs = errors.Join(errs, fmt.Errorf("client close: %w", err))
		}
		if err := redis.Destroy(st.th); err != nil {
			errs = errors.Join(errs, fmt.Errorf("store destroy: %w", err))
		}
		st.proc.Exit()
	}
	if err := st.m.PM.CheckLeaks(st.base); err != nil {
		errs = errors.Join(errs, fmt.Errorf("leak check: %w", err))
	}
	return errs
}
