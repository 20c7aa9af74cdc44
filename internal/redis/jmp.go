package redis

import (
	"errors"
	"fmt"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/mspace"
)

// RedisJMP (§5.3): the server process is elided entirely. The first client
// lazily creates a lockable segment holding the store, plus two VASes over
// it — one mapping the segment read-only (GETs take the lock shared) and
// one mapping it read-write (SETs take it exclusively). Every client also
// attaches a small private scratch heap into its own view of the VAS for
// command parsing, so GETs never need write access to the shared segment.

// Names in the global registries, exported so tooling and the serving
// layer can find (and tear down) the shared state.
const (
	// SegName is the shared data segment holding the store.
	SegName = "redisjmp.data"
	// ReadVASName maps the store read-only (GETs lock it shared).
	ReadVASName = "redisjmp.read"
	// WriteVASName maps the store read-write (SETs lock it exclusively).
	WriteVASName = "redisjmp.write"
)

// Names identifies one store instance in the global registries. The cluster
// layer runs one instance per shard node; the single-machine experiments
// use DefaultNames.
type Names struct {
	Seg      string // the shared data segment
	ReadVAS  string // maps the segment read-only
	WriteVAS string // maps the segment read-write
	Tagged   bool   // CreateInstance gives both VASes a TLB tag
}

// DefaultNames is the single-store instance of §5.3.
var DefaultNames = Names{Seg: SegName, ReadVAS: ReadVASName, WriteVAS: WriteVASName}

// ShardNames returns the registry names of cluster shard node i's store.
func ShardNames(i int) Names {
	return Names{
		Seg:      fmt.Sprintf("cluster.s%d.data", i),
		ReadVAS:  fmt.Sprintf("cluster.s%d.read", i),
		WriteVAS: fmt.Sprintf("cluster.s%d.write", i),
		Tagged:   true, // the cluster switches between tagged VASes only
	}
}

// StandbyNames returns the registry names of shard node i's warm standby
// store — the replica copy the cluster's failover path rebuilds from
// checkpoint generations and promotes when the primary dies.
func StandbyNames(i int) Names {
	return Names{
		Seg:      fmt.Sprintf("cluster.s%d.standby.data", i),
		ReadVAS:  fmt.Sprintf("cluster.s%d.standby.read", i),
		WriteVAS: fmt.Sprintf("cluster.s%d.standby.write", i),
		Tagged:   true,
	}
}

// ScratchName returns the global registry name of the private scratch heap
// a client of pid attaches to the instance named by names. Exported so the
// cluster can reap a crashed node's scratch segment — the kernel reaper
// only reclaims private segments, and a crashed client never ran Close.
func ScratchName(names Names, pid int) string {
	return fmt.Sprintf("%s.scratch.p%d", names.Seg, pid)
}

// ErrStoreFull reports a SET that could not fit in the shared segment's
// heap. It wraps core.ErrNoSpace (and the failing operation keeps its
// mspace.ErrNoSpace cause), so errors.Is works end to end across layers.
var ErrStoreFull = fmt.Errorf("redis: store segment full: %w", core.ErrNoSpace)

// SegBase is the store segment's fixed address; ScratchBase hosts each
// client's private scratch segment inside its attachments.
const (
	SegBase     = core.GlobalBase
	scratchSize = 64 << 10
)

// ScratchBase hosts client scratch heaps one PML4 slot above the store.
var ScratchBase = core.GlobalBase + arch.VirtAddr(arch.LevelCoverage(3))

// parseCycles models the RESP command parse/format work redis-benchmark
// style clients perform per request (in the scratch heap).
const parseCycles = 300

// Client is one RedisJMP client process.
type Client struct {
	th     *core.Thread
	names  Names
	readH  core.Handle
	writeH core.Handle
	store  *Store

	// scratch is this client's private heap segment id.
	scratch core.SegID

	// stage holds a SET's key and value as bytes while the store copies them
	// into the segment (staged): converted one by one, each would escape
	// through the store's Accessor, an allocation per argument.
	stage []byte
}

// maxKeptStage bounds the staging buffer a client keeps between commands, so
// one huge value does not stay pinned to the client that stored it.
const maxKeptStage = 64 << 10

// staged copies key and val into the client's staging buffer and returns
// them as bytes: valid until the client's next staged.
func (c *Client) staged(key, val string) ([]byte, []byte) {
	if cap(c.stage) > maxKeptStage {
		c.stage = nil
	}
	c.stage = append(append(c.stage[:0], key...), val...)
	return c.stage[:len(key)], c.stage[len(key):]
}

// NewClient attaches the calling thread to the RedisJMP state, creating it
// (segment, store, VASes) if this is the first client.
func NewClient(th *core.Thread, segSize uint64) (*Client, error) {
	return NewClientNamed(th, segSize, DefaultNames)
}

// NewClientNamed attaches the calling thread to the store instance named by
// names, creating it (segment, store, VASes) if this is the first client.
// One process may hold clients on several instances at once — the cluster's
// router workers attach every co-resident shard this way. opts configure
// the data segment's allocation when this client is the one bootstrapping
// it (the cluster places replicated shard stores in the NVM tier this way);
// they are ignored when the store already exists.
func NewClientNamed(th *core.Thread, segSize uint64, names Names, opts ...core.SegOption) (_ *Client, err error) {
	c := &Client{th: th, names: names}
	if err := c.bootstrap(segSize, opts...); err != nil {
		return nil, err
	}
	vidR, err := th.VASFind(names.ReadVAS)
	if err != nil {
		return nil, err
	}
	vidW, err := th.VASFind(names.WriteVAS)
	if err != nil {
		return nil, err
	}
	// From here on a failure takes down what this call put up: the thread is
	// out of the VAS, the handles gone, and the scratch heap too if it is ours.
	ownScratch := false
	defer func() {
		if err == nil {
			return
		}
		// Best effort, in reverse; the failure that led here is the one reported.
		if th.Current() != core.PrimaryHandle {
			_ = th.VASSwitch(core.PrimaryHandle)
		}
		for _, h := range []core.Handle{c.writeH, c.readH} {
			if h != core.PrimaryHandle {
				_ = th.VASDetach(h)
			}
		}
		if ownScratch {
			_ = th.SegFree(c.scratch)
		}
	}()
	if c.readH, err = th.VASAttach(vidR); err != nil {
		return nil, err
	}
	if c.writeH, err = th.VASAttach(vidW); err != nil {
		return nil, err
	}
	// Private scratch heap, attached to this client's views only. The name
	// includes the instance so a process holding clients on several shard
	// stores gets one scratch heap per instance.
	scratchName := ScratchName(names, th.Proc.PID)
	c.scratch, err = th.SegFind(scratchName)
	if errors.Is(err, core.ErrNotFound) {
		c.scratch, err = th.SegAlloc(scratchName, ScratchBase, scratchSize, arch.PermRW)
		ownScratch = err == nil
	}
	if err != nil {
		return nil, err
	}
	if err := th.SegAttachLocal(c.readH, c.scratch, arch.PermRW); err != nil {
		return nil, err
	}
	if err := th.SegAttachLocal(c.writeH, c.scratch, arch.PermRW); err != nil {
		return nil, err
	}
	// Bind the store handle (reads header pointers) from inside the VAS.
	if err := th.VASSwitch(c.readH); err != nil {
		return nil, err
	}
	if c.store, err = OpenStore(th, SegBase); err != nil {
		return nil, err
	}
	if err := th.VASSwitch(core.PrimaryHandle); err != nil {
		return nil, err
	}
	return c, nil
}

// bootstrap creates the shared state if no client has yet (§5.3: "the
// server data is initialized lazily by its first client").
func (c *Client) bootstrap(segSize uint64, opts ...core.SegOption) error {
	if _, err := c.th.VASFind(c.names.ReadVAS); err == nil {
		return nil
	} else if !errors.Is(err, core.ErrNotFound) {
		return err
	}
	err := CreateInstance(c.th, c.names, segSize, func() error {
		_, err := CreateStore(c.th, SegBase, segSize)
		return err
	}, opts...)
	if errors.Is(err, core.ErrExists) {
		return nil // raced with another bootstrapper
	}
	return err
}

// CreateInstance builds the store instance named by names: a segment of size
// bytes at SegBase, a VAS mapping it read-write and a VAS mapping it
// read-only, both tagged before anything switches in if names.Tagged. fill
// runs as under FillInstance and puts the store there —
// CreateStore for a new one, the stores that copy an image in for a replica.
// On any failure CreateInstance takes down what it built, so a failed attempt
// leaves nothing under those names for the next one to trip over.
func CreateInstance(th *core.Thread, names Names, size uint64, fill func() error, opts ...core.SegOption) (err error) {
	sid, err := th.SegAlloc(names.Seg, SegBase, size, arch.PermRW, opts...)
	if err != nil {
		return err
	}
	var vids []core.VASID
	defer func() {
		if err == nil {
			return
		}
		// Best effort, in reverse; the failure that led here is the one reported.
		for _, vid := range vids {
			_ = th.VASDestroy(vid)
		}
		_ = th.SegFree(sid)
	}()
	for _, v := range []struct {
		name string
		perm arch.Perm
	}{{names.WriteVAS, arch.PermRW}, {names.ReadVAS, arch.PermRead}} {
		vid, err := th.VASCreate(v.name, 0o666)
		if err != nil {
			return err
		}
		vids = append(vids, vid)
		if err := th.SegAttachVAS(vid, sid, v.perm); err != nil {
			return err
		}
		if names.Tagged {
			if err := th.VASCtl(vid, core.SetTag()); err != nil {
				return err
			}
		}
	}
	return fillVAS(th, vids[0], fill)
}

// FillInstance runs fill switched into the write VAS of the standing instance
// named by names, through an attachment that lasts only that long — how a
// replica's store is patched in place.
func FillInstance(th *core.Thread, names Names, fill func() error) error {
	vid, err := th.VASFind(names.WriteVAS)
	if err != nil {
		return err
	}
	return fillVAS(th, vid, fill)
}

func fillVAS(th *core.Thread, vid core.VASID, fill func() error) error {
	h, err := th.VASAttach(vid)
	if err != nil {
		return err
	}
	if err = th.VASSwitch(h); err == nil {
		err = fill()
		if serr := th.VASSwitch(core.PrimaryHandle); err == nil {
			err = serr
		}
	}
	if derr := th.VASDetach(h); err == nil {
		err = derr
	}
	return err
}

// EnableTags assigns TLB tags to both VASes (the "RedisJMP (Tags)" series
// of Figure 10a).
func (c *Client) EnableTags() error {
	for _, name := range []string{c.names.ReadVAS, c.names.WriteVAS} {
		vid, err := c.th.VASFind(name)
		if err != nil {
			return err
		}
		if err := c.th.VASCtl(vid, core.SetTag()); err != nil {
			return err
		}
	}
	return nil
}

// in runs fn switched into the VAS behind h, after charging the parse work of
// cmds commands to the scratch heap. The switch back happens whatever fn
// returns, so an error — a failed table walk, a full heap — never strands the
// thread inside the VAS holding the segment's lock.
func (c *Client) in(h core.Handle, cmds int, fn func() error) error {
	c.th.Core.AddCycles(uint64(cmds) * parseCycles)
	if err := c.th.VASSwitch(h); err != nil {
		return err
	}
	err := fn()
	if serr := c.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	return err
}

// Get executes a GET: parse in the scratch heap, switch into the read VAS
// (shared lock), walk the table directly, switch back.
func (c *Client) Get(key string) (val []byte, ok bool, err error) {
	err = c.in(c.readH, 1, func() (err error) {
		val, ok, err = c.store.Get([]byte(key))
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return val, ok, nil
}

// MGet executes a multi-key GET on the paper's fast path: one switch into
// the read VAS (one shared lock acquisition), one table walk per key, one
// switch out. This is the operation Figure 7's comparison is about — over
// message passing every key group costs a round trip of cache-line
// transfers, while here the additional keys cost only memory accesses.
// Missing keys come back as nil entries.
func (c *Client) MGet(keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	err := c.in(c.readH, len(keys), func() (err error) {
		for i, key := range keys {
			if vals[i], _, err = c.store.Get([]byte(key)); err != nil {
				break
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// Set executes a SET under the exclusive lock, rehashing while exclusive
// if the table outgrew its buckets. A heap-exhausted SET comes back wrapped
// in ErrStoreFull, so callers can test it with errors.Is against redis, core,
// and mspace sentinels alike.
func (c *Client) Set(key string, val []byte) error {
	err := c.in(c.writeH, 1, func() error { return c.set([]byte(key), val) })
	if errors.Is(err, mspace.ErrNoSpace) {
		return fmt.Errorf("%w: %w", ErrStoreFull, err)
	}
	return err
}

// set is a SET for a thread already switched into the write VAS.
func (c *Client) set(key, val []byte) error {
	if err := c.store.Set(key, val); err != nil {
		return err
	}
	need, err := c.store.NeedRehash()
	if err != nil || !need {
		return err
	}
	return c.store.Rehash()
}

// Del removes a key under the exclusive lock.
func (c *Client) Del(key string) (found bool, err error) {
	err = c.in(c.writeH, 1, func() (err error) {
		found, err = c.store.Del([]byte(key))
		return err
	})
	return found, err
}

// Close detaches the client from the RedisJMP state and frees its private
// scratch segment. The shared VASes and store survive — they are
// first-class and outlive every client (§3.2).
func (c *Client) Close() error {
	if cur := c.th.Current(); cur != core.PrimaryHandle {
		if err := c.th.VASSwitch(core.PrimaryHandle); err != nil {
			return err
		}
	}
	for _, h := range []core.Handle{c.readH, c.writeH} {
		if err := c.th.VASDetach(h); err != nil {
			return err
		}
	}
	return c.th.SegFree(c.scratch)
}

// Destroy removes the shared RedisJMP state: both VASes and the store
// segment are destroyed and their frames returned to the allocator. Every
// client must have Closed first (attached VASes refuse destruction).
func Destroy(th *core.Thread) error { return DestroyNamed(th, DefaultNames) }

// DestroyNamed removes the store instance named by names, as Destroy does
// for the default instance.
func DestroyNamed(th *core.Thread, names Names) error {
	sid, err := th.SegFind(names.Seg)
	if err != nil {
		return err
	}
	for _, name := range []string{names.ReadVAS, names.WriteVAS} {
		vid, err := th.VASFind(name)
		if err != nil {
			return err
		}
		if err := th.SegDetachVAS(vid, sid); err != nil {
			return err
		}
		if err := th.VASDestroy(vid); err != nil {
			return err
		}
	}
	return th.SegFree(sid)
}
