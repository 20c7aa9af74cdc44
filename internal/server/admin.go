package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	_ "net/http/pprof" // registers the runtime's profiles on http.DefaultServeMux, mounted below
	"strconv"
	"sync"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/stats"
	"spacejmp/internal/tenant"
)

// NodeHealth is one shard node's routing and failover status, as the
// cluster layer reports it (defined here so the admin surface does not
// import the cluster package, which imports this one).
type NodeHealth struct {
	Node          int    `json:"node"`
	Local         bool   `json:"local"`
	Replicated    bool   `json:"replicated,omitempty"`
	State         string `json:"state"`
	Promoted      bool   `json:"promoted,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	LostUpdates   uint64 `json:"lost_updates,omitempty"`
	DeltaBuffered int    `json:"delta_buffered,omitempty"`
	Detail        string `json:"detail,omitempty"`
}

// SlotRangeInfo is one contiguous run of placement slots with one owner.
type SlotRangeInfo struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Node  int `json:"node"`
}

// PlacementInfo is the cluster's slot-table state for the admin surface:
// the table's version, the slot count, and the owned ranges.
type PlacementInfo struct {
	Version uint64          `json:"version"`
	Slots   int             `json:"slots"`
	Ranges  []SlotRangeInfo `json:"ranges"`
}

// ClusterStatus is what the admin surface needs from the cluster router:
// live channel occupancy, per-node health, and the slot-table placement.
type ClusterStatus interface {
	PendingFrames() int
	Health() []NodeHealth
	PlacementInfo() PlacementInfo
}

// AdminHandler serves the machine's live observability state over HTTP:
//
//	GET /stats       — sys.Stats() as JSON (a stats.Snapshot), plus
//	                   the armed fault rules (a "faults" block) and the
//	                   cluster's live runtime state (pending urpc frames,
//	                   per-node health)
//	GET /stats/delta — long-poll delta stream: the first call returns the
//	                   full snapshot and a cursor; each follow-up call with
//	                   ?cursor= blocks (up to ?wait=, default 10s) until any
//	                   counter changed, then returns the delta since the
//	                   cursor's snapshot and a new cursor. A watcher loops on
//	                   it to stream a running scenario's activity instead of
//	                   re-pulling and re-diffing full snapshots.
//	GET /trace?n=    — the most recent n retained trace events (default all)
//	GET /healthz     — liveness probe; JSON with the current placement table
//	                   version (so operators can correlate degraded ranges
//	                   with a recent slot flip); 503 with per-node detail
//	                   when any key range is degraded (failed, mid-promotion,
//	                   or lost)
//	GET /tenants     — multi-tenant registry listing: each tenant's quotas,
//	                   live usage, and serving counters (404 when the server
//	                   runs single-tenant)
//	GET /debug/pprof/ — the Go runtime's profiles (net/http/pprof), here and
//	                   never on the RESP port: …/debug/pprof/profile?seconds=10
//
// Every endpoint reads what every other reader of the counters does,
// core.System.Stats, which is safe to poll while workers drive the cores.
func AdminHandler(sys *core.System, cl ClusterStatus, tenants *tenant.Registry) http.Handler {
	cursors := &deltaCursors{snaps: map[uint64]cursorSnap{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// healthBody carries the placement version alongside the verdict so
		// an operator can correlate a degraded range with a recent slot
		// flip without a second /topology round trip.
		type healthBody struct {
			Status           string       `json:"status"`
			PlacementVersion uint64       `json:"placement_version"`
			Nodes            []NodeHealth `json:"nodes,omitempty"`
		}
		body := healthBody{Status: "ok", PlacementVersion: cl.PlacementInfo().Version}
		status := http.StatusOK
		for _, n := range cl.Health() {
			if n.Degraded || n.LostUpdates > 0 {
				body.Nodes = append(body.Nodes, n)
			}
		}
		if len(body.Nodes) > 0 {
			body.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		if tenants == nil {
			http.Error(w, "multi-tenant serving disabled", http.StatusNotFound)
			return
		}
		infos := tenants.List()
		counters := sys.Stats().Tenants
		type entry struct {
			tenant.Info
			Counters stats.TenantSnap `json:"counters"`
		}
		out := make([]entry, len(infos))
		for i, info := range infos {
			out[i] = entry{Info: info}
			if i < len(counters) {
				out[i].Counters = counters[i]
			}
		}
		writeJSON(w, struct {
			Generation uint64  `json:"generation"`
			Tenants    []entry `json:"tenants"`
		}{tenants.Generation(), out})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			*stats.Snapshot
			Faults  []fault.PointStatus `json:"faults,omitempty"`
			Runtime clusterRuntime      `json:"cluster_runtime"`
		}{sys.Stats(), sys.M.Faults.Points(), clusterRuntime{cl.PendingFrames(), cl.Health(), cl.PlacementInfo()}})
	})
	mux.HandleFunc("/stats/delta", func(w http.ResponseWriter, r *http.Request) {
		serveStatsDelta(w, r, sys, cursors)
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Placement PlacementInfo `json:"placement"`
			Nodes     []NodeHealth  `json:"nodes"`
		}{cl.PlacementInfo(), cl.Health()})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		t := sys.Tracer()
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		events := t.Events()
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		out := make([]traceEvent, len(events))
		for i, e := range events {
			out[i] = traceEvent{Kind: e.Kind.String(), Event: e}
		}
		writeJSON(w, struct {
			Recorded uint64       `json:"recorded"`
			Dropped  uint64       `json:"dropped"`
			Events   []traceEvent `json:"events"`
		}{t.Recorded(), t.Dropped(), out})
	})
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// clusterRuntime is the live (non-counter) cluster state folded into /stats.
type clusterRuntime struct {
	PendingFrames int           `json:"pending_frames"`
	Nodes         []NodeHealth  `json:"nodes"`
	Placement     PlacementInfo `json:"placement"`
}

// traceEvent decorates a stats.Event with its kind's name — the numeric
// Kind is json:"-" on the inner type, so the name is the wire form.
type traceEvent struct {
	Kind string `json:"kind"`
	stats.Event
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// --- /stats/delta: long-poll streaming of snapshot deltas. ---

// cursorSnap is one registered baseline: the snapshot a future delta is
// taken against, plus its canonical JSON form — change detection compares
// marshaled bytes, which is sound because Go marshals map keys sorted.
type cursorSnap struct {
	snap *stats.Snapshot
	raw  []byte
}

// deltaCursors is the handler's baseline table. Cursors are cheap (one
// snapshot each) but unclaimed ones must not accumulate, so the table is
// bounded: past maxDeltaCursors the oldest (smallest id) is evicted, and a
// poll presenting it gets 410 Gone — the watcher restarts cursorless.
type deltaCursors struct {
	mu    sync.Mutex
	next  uint64
	snaps map[uint64]cursorSnap
}

const maxDeltaCursors = 64

func (c *deltaCursors) register(cs cursorSnap) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	c.snaps[c.next] = cs
	for len(c.snaps) > maxDeltaCursors {
		oldest := uint64(0)
		for id := range c.snaps {
			if oldest == 0 || id < oldest {
				oldest = id
			}
		}
		delete(c.snaps, oldest)
	}
	return c.next
}

func (c *deltaCursors) take(id uint64) (cursorSnap, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.snaps[id]
	if ok {
		// A cursor is single-use: the reply hands back a fresh one, so
		// dropping the old baseline keeps the table from filling with
		// spent entries.
		delete(c.snaps, id)
	}
	return cs, ok
}

// statsDelta is one long-poll reply: the next cursor, whether any counter
// changed within the wait window, and the delta itself (the full snapshot
// on a cursorless first call).
type statsDelta struct {
	Cursor  uint64          `json:"cursor"`
	Changed bool            `json:"changed"`
	Delta   *stats.Snapshot `json:"delta"`
}

func serveStatsDelta(w http.ResponseWriter, r *http.Request, sys *core.System, cursors *deltaCursors) {
	snapshotNow := func() cursorSnap {
		snap := sys.Stats()
		raw, _ := json.Marshal(snap) // a Snapshot always marshals
		return cursorSnap{snap, raw}
	}

	cur := snapshotNow()
	cursorParam := r.URL.Query().Get("cursor")
	if cursorParam == "" {
		// First call: the full snapshot is the delta, and its baseline is
		// what the next poll diffs against.
		writeJSON(w, statsDelta{cursors.register(cur), true, cur.snap})
		return
	}
	id, err := strconv.ParseUint(cursorParam, 10, 64)
	if err != nil {
		http.Error(w, "bad cursor", http.StatusBadRequest)
		return
	}
	base, ok := cursors.take(id)
	if !ok {
		http.Error(w, "unknown cursor (expired?)", http.StatusGone)
		return
	}

	wait := 10 * time.Second
	if s := r.URL.Query().Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		wait = d
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}

	deadline := time.Now().Add(wait)
	changed := !bytes.Equal(cur.raw, base.raw)
	for !changed {
		if time.Now().After(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(20 * time.Millisecond):
		}
		cur = snapshotNow()
		changed = !bytes.Equal(cur.raw, base.raw)
	}
	writeJSON(w, statsDelta{cursors.register(cur), changed, cur.snap.Delta(base.snap)})
}
