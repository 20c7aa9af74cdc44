package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/overload"
	"spacejmp/internal/server"
	"spacejmp/internal/tenant"
)

// Front is what only the binary standing a stack up knows about it; the
// rest of its shape is a Spec.
type Front struct {
	Addr     string        // RESP listen address
	Admin    string        // HTTP admin listen address; empty serves none
	TraceCap int           // trace ring capacity (0 disables tracing)
	Pipeline int           // per-connection in-flight command cap (0 = the server's default)
	Quotas   tenant.Quotas // every demo tenant's
	// Logf narrates the schedule; nil is silent.
	Logf func(format string, args ...any)
}

// Stack is one serving stack — simulated machine, fault registry, kernel,
// cluster, RESP server, optional admin surface — with a step schedule
// playing against it. Boot stands it up; Teardown takes it down.
type Stack struct {
	Machine *hw.Machine // its Cfg as sized here, its Faults the registry the steps arm
	Sys     *core.System
	Router  *cluster.Router
	Tenants *tenant.Registry // nil unless the spec's load is multi-tenant
	Server  *server.Server
	Admin   net.Addr // nil without an admin surface

	sched     *ScheduleRun
	admin     *http.Server
	frameBase uint64
}

// Boot stands the spec's stack up, in the one order there is: machine, fault
// registry, the spec's offset-zero fault rules armed, kernel and stats sink,
// cluster, tenants, server, admin surface, and last the rest of the schedule
// (operator steps and later offsets). The rules come before the cluster
// because a cluster runs from the moment it is built — the monitor's first act
// is a checkpoint ship per replicated node — and a whole-run rule holds for
// that too. The spec's seed, machine, cluster block, tenant count and steps are
// used; its load and invariants are the caller's business. A failed Boot
// leaves nothing standing.
func Boot(spec *Spec, f Front) (*Stack, error) {
	hwCfg, err := hw.NamedConfig(spec.Machine)
	if err != nil {
		return nil, err
	}
	clCfg, err := spec.Cluster.Config()
	if err != nil {
		return nil, err
	}
	if clCfg.Replication.Enabled {
		// Replication rides NVM checkpoint generations; give machines
		// configured without (enough) persistent memory room to hold them.
		if hwCfg.Mem.NVMSize == 0 {
			hwCfg.Mem.NVMSize = 256 << 20
		}
		if hwCfg.Mem.NVMSuperblock == 0 {
			hwCfg.Mem.NVMSuperblock = min(hwCfg.Mem.NVMSize/4, 64<<20)
		}
	}
	st := &Stack{Machine: hw.NewMachine(hwCfg)}
	st.Machine.SetFaults(fault.New(spec.Seed))
	st.sched = NewSchedule(spec.Steps, st.Machine.Faults, f.Logf)
	st.Sys = kernel.New(st.Machine)
	st.Sys.EnableStats(f.TraceCap)
	st.frameBase = st.Machine.PM.AllocatedBytes()

	if st.Router, err = cluster.New(st.Sys, clCfg); err != nil {
		return nil, fmt.Errorf("cluster boot: %w", err)
	}
	if spec.Load.Tenants > 0 {
		// The demo registry over the cluster's node stores; the load
		// generator authenticates with the matching demo credentials.
		st.Tenants, err = tenant.NewDemo(spec.Load.Tenants,
			tenant.Config{Nodes: clCfg.Nodes, Stats: st.Machine.Observer()}, f.Quotas)
		if err != nil {
			st.Router.Close()
			return nil, fmt.Errorf("tenant registry: %w", err)
		}
	}
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		st.Router.Close()
		return nil, err
	}
	srvCfg := server.Config{
		PipelineDepth: f.Pipeline,
		Tenants:       st.Tenants,
		// Wall-clock deadlines become cycle budgets at the machine's clock;
		// the same rate converts each client DEADLINE <ms> override.
		CyclesPerMilli: uint64(hwCfg.GHz * 1e6),
	}
	if d := time.Duration(spec.Cluster.Deadline); d > 0 {
		srvCfg.DeadlineCycles = overload.Cycles(d, hwCfg.GHz)
	}
	st.Server = server.NewWithBackend(st.Sys, ln, srvCfg, st.Router)
	if f.Admin != "" {
		aln, err := net.Listen("tcp", f.Admin)
		if err != nil {
			st.Server.Shutdown()
			return nil, fmt.Errorf("admin: %w", err)
		}
		st.Admin = aln.Addr()
		st.admin = &http.Server{Handler: server.AdminHandler(st.Sys, st.Router, st.Tenants)}
		go st.admin.Serve(aln)
	}
	st.sched.Start(st.Router)
	return st, nil
}

// Teardown takes the stack down, Boot's order mirrored: the schedule is
// stopped where it stands and its step reports closed, the server drains and
// closes the cluster, the admin surface goes, and the machine is held to the
// frames it had before the cluster — leak is what is still allocated.
func (st *Stack) Teardown() (steps []StepReport, shutdown, leak error) {
	steps = st.sched.Stop()
	shutdown = st.Server.Shutdown()
	if st.admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st.admin.Shutdown(ctx)
		cancel()
	}
	return steps, shutdown, st.Machine.PM.CheckLeaks(st.frameBase)
}
