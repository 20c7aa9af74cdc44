package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"

	"spacejmp/internal/arch"
	"spacejmp/internal/mem"
	"spacejmp/internal/vm"
)

// Persistence of VASes across reboots (paper §7: "we also plan to address
// other issues such as the persistency of multiple virtual address spaces
// (for example, across reboots)").
//
// Checkpoint serializes the registries of NVM-backed segments and the
// VASes over them into the machine's NVM superblock. After a power cycle —
// which destroys all DRAM content and allocations but preserves NVM — a
// fresh System Restores from the superblock: segments reattach their
// surviving frames, VASes reattach their segment lists, and processes can
// vas_find and switch into them as if nothing happened.
//
// The superblock is crash-consistent: it holds two generation slots, each a
// header (magic, version, sequence number, payload length, CRC32) followed
// by a gob payload. Checkpoint writes the new generation into the slot NOT
// holding the newest valid image — payload first, committing header last —
// so a power cut at any byte leaves the previous generation intact. Restore
// validates both slots and boots from the newest one whose CRC checks out.

const (
	checkpointMagic   uint64 = 0x53504a4d50533031 // "SPJMPS01"
	checkpointVersion uint64 = 2

	// Slot header layout (all little-endian uint64):
	// magic, version, seq, payload length, CRC32 of payload.
	hdrMagic   = 0
	hdrVersion = 8
	hdrSeq     = 16
	hdrLen     = 24
	hdrCRC     = 32
	hdrSize    = 40

	numGenerations = 2
)

// Checkpoint/Restore errors. Callers distinguish fresh NVM (no image was
// ever committed) from a damaged image (a header is present but no
// generation validates).
var (
	ErrNoCheckpoint      = errors.New("spacejmp: no checkpoint in superblock")
	ErrCorruptCheckpoint = errors.New("spacejmp: corrupt checkpoint")
)

// Gob-friendly snapshots of the persistable state.
type persistSeg struct {
	ID       SegID
	Name     string
	Base     arch.VirtAddr
	Size     uint64
	Perm     arch.Perm
	Lockable bool
	Owner    Creds
	PageSize uint64
	Frames   map[uint64]arch.PhysAddr
}

type persistVASMapping struct {
	Seg  SegID
	Perm arch.Perm
}

type persistVAS struct {
	ID    VASID
	Name  string
	Owner Creds
	Mode  uint16
	Tag   arch.ASID
	Segs  []persistVASMapping
}

type persistImage struct {
	Segs     []persistSeg
	Vases    []persistVAS
	NextVAS  VASID
	NextSeg  SegID
	NextASID arch.ASID
}

// generation describes one validated superblock slot.
type generation struct {
	slot  int
	base  arch.PhysAddr // slot base (header)
	seq   uint64
	size  uint64
	valid bool
	magic bool // slot carries the checkpoint magic (valid or not)
}

// slotGeometry returns the base and capacity of slot i within the
// superblock [sbBase, sbBase+sbSize).
func slotGeometry(sbBase arch.PhysAddr, sbSize uint64, i int) (arch.PhysAddr, uint64) {
	per := sbSize / numGenerations
	return sbBase + arch.PhysAddr(uint64(i)*per), per
}

// readGeneration validates slot i's header and payload CRC.
func (sys *System) readGeneration(sbBase arch.PhysAddr, sbSize uint64, i int) (generation, error) {
	base, slotCap := slotGeometry(sbBase, sbSize, i)
	g := generation{slot: i, base: base}
	if slotCap < hdrSize {
		return g, nil
	}
	head := make([]byte, hdrSize)
	if err := sys.M.PM.ReadAt(base, head); err != nil {
		return g, err
	}
	if binary.LittleEndian.Uint64(head[hdrMagic:]) != checkpointMagic {
		return g, nil
	}
	g.magic = true
	if binary.LittleEndian.Uint64(head[hdrVersion:]) != checkpointVersion {
		return g, nil
	}
	g.seq = binary.LittleEndian.Uint64(head[hdrSeq:])
	g.size = binary.LittleEndian.Uint64(head[hdrLen:])
	if g.size == 0 || g.size+hdrSize > slotCap {
		return g, nil
	}
	payload := make([]byte, g.size)
	if err := sys.M.PM.ReadAt(base+hdrSize, payload); err != nil {
		return g, err
	}
	if uint64(crc32.ChecksumIEEE(payload)) != binary.LittleEndian.Uint64(head[hdrCRC:]) {
		return g, nil
	}
	g.valid = true
	return g, nil
}

// generations reads and validates both slots.
func (sys *System) generations(sbBase arch.PhysAddr, sbSize uint64) ([numGenerations]generation, error) {
	var gens [numGenerations]generation
	for i := range gens {
		g, err := sys.readGeneration(sbBase, sbSize, i)
		if err != nil {
			return gens, err
		}
		gens[i] = g
	}
	return gens, nil
}

// newestValid returns the valid generation with the highest sequence
// number, or ok=false when no slot validates.
func newestValid(gens [numGenerations]generation) (generation, bool) {
	best, ok := generation{}, false
	for _, g := range gens {
		if g.valid && (!ok || g.seq > best.seq) {
			best, ok = g, true
		}
	}
	return best, ok
}

// Checkpoint writes the persistable state into the NVM superblock as a new
// generation. Only segments backed by the NVM tier are included (DRAM
// contents would not survive the power cycle anyway); VAS segment lists are
// filtered accordingly. Attachments and processes are inherently volatile
// and are not part of the image.
//
// The commit is atomic with respect to power loss: the previous generation's
// slot is untouched, the new payload lands first, and the header (whose CRC
// makes the slot valid) is written last. A torn write surfaces as an error
// and leaves the previous generation the newest valid one.
func (sys *System) Checkpoint() error {
	sbBase, sbSize := sys.M.PM.Superblock()
	if sbSize == 0 {
		return fmt.Errorf("%w: machine has no NVM superblock; configure mem.Config.NVMSuperblock", ErrInvalid)
	}
	sys.mu.Lock()
	img := persistImage{NextVAS: sys.nextVAS, NextSeg: sys.nextSeg, NextASID: sys.nextASID}
	persisted := map[SegID]bool{}
	ephemeral := map[SegID]bool{}
	for _, seg := range sys.segs {
		if seg.Ephemeral() {
			// Frozen fork views are transient: their frames belong to a live
			// segment's COW chain and are already covered by that segment's
			// resolved frame map below.
			ephemeral[seg.ID] = true
			continue
		}
		if seg.Obj.Tier != mem.TierNVM {
			continue
		}
		// ResolvedFrameMap, not FrameMap: after a frozen fork the live
		// object's own map holds only pages written since the fork — the
		// rest live up the COW parent chain and must still be persisted.
		img.Segs = append(img.Segs, persistSeg{
			ID: seg.ID, Name: seg.Name, Base: seg.Base, Size: seg.Size,
			Perm: seg.Perm(), Lockable: seg.Lockable(), Owner: seg.Owner,
			PageSize: seg.Obj.PageSize, Frames: seg.Obj.ResolvedFrameMap(),
		})
		persisted[seg.ID] = true
	}
	for _, v := range sys.vases {
		pv := persistVAS{ID: v.ID, Name: v.Name, Owner: v.Owner, Mode: v.Mode, Tag: v.Tag()}
		skip := false
		for _, m := range v.Mappings() {
			if ephemeral[m.Seg.ID] {
				skip = true
				break
			}
			if persisted[m.Seg.ID] {
				pv.Segs = append(pv.Segs, persistVASMapping{Seg: m.Seg.ID, Perm: m.Perm})
			}
		}
		if skip {
			// VASes over frozen views die with the fork; restoring them
			// would resurrect a window onto nothing.
			continue
		}
		img.Vases = append(img.Vases, pv)
	}
	sys.mu.Unlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		return fmt.Errorf("spacejmp: encoding checkpoint: %w", err)
	}
	_, slotCap := slotGeometry(sbBase, sbSize, 0)
	if uint64(buf.Len())+hdrSize > slotCap {
		return fmt.Errorf("%w: checkpoint (%d B) exceeds generation slot (%d B); grow mem.Config.NVMSuperblock",
			ErrLayout, buf.Len(), slotCap)
	}

	// Pick the slot NOT holding the newest valid generation.
	gens, err := sys.generations(sbBase, sbSize)
	if err != nil {
		return err
	}
	target, seq := 0, uint64(1)
	if cur, ok := newestValid(gens); ok {
		target = (cur.slot + 1) % numGenerations
		seq = cur.seq + 1
	}
	slotBase, _ := slotGeometry(sbBase, sbSize, target)

	// Payload first; the slot stays invalid (old header, new payload → CRC
	// mismatch) until the header commits it.
	if err := sys.M.PM.WriteAt(slotBase+hdrSize, buf.Bytes()); err != nil {
		return fmt.Errorf("spacejmp: writing checkpoint payload: %w", err)
	}
	head := make([]byte, hdrSize)
	binary.LittleEndian.PutUint64(head[hdrMagic:], checkpointMagic)
	binary.LittleEndian.PutUint64(head[hdrVersion:], checkpointVersion)
	binary.LittleEndian.PutUint64(head[hdrSeq:], seq)
	binary.LittleEndian.PutUint64(head[hdrLen:], uint64(buf.Len()))
	binary.LittleEndian.PutUint64(head[hdrCRC:], uint64(crc32.ChecksumIEEE(buf.Bytes())))
	if err := sys.M.PM.WriteAt(slotBase, head); err != nil {
		return fmt.Errorf("spacejmp: committing checkpoint header: %w", err)
	}
	return nil
}

// SegmentImage is one segment's content as recorded by a checkpoint
// generation: the metadata needed to rebuild the segment elsewhere plus the
// bytes of the pages it holds, in page order in one buffer. A full image
// (Base 0) holds every page the segment had materialized — one it does not
// list was never touched and reads as zeros, so an applier that starts from
// fresh frames and skips it reproduces the same contents. A delta holds the
// pages written since generation Base and only means something over that.
type SegmentImage struct {
	Name     string
	Size     uint64
	PageSize uint64
	Lockable bool
	Seq      uint64   // generation the image came from
	Base     uint64   // generation the image is a delta over; 0: a full image
	Index    []uint64 // indices of the pages held, ascending
	Data     []byte   // their contents in Index order, PageSize bytes each
}

// Page returns the contents of the i-th page held, page number Index[i].
func (img *SegmentImage) Page(i int) []byte {
	return img.Data[uint64(i)*img.PageSize:][:img.PageSize]
}

// read fills the image with the contents of frames, page index → frame.
func (img *SegmentImage) read(sys *System, frames map[uint64]arch.PhysAddr) (*SegmentImage, error) {
	img.Index = slices.Sorted(maps.Keys(frames))
	img.Data = make([]byte, uint64(len(img.Index))*img.PageSize)
	for i, idx := range img.Index {
		if err := sys.M.PM.ReadAt(frames[idx], img.Page(i)); err != nil {
			return nil, fmt.Errorf("spacejmp: reading page %d of %q: %w", idx, img.Name, err)
		}
	}
	return img, nil
}

// CheckpointSegment reads one segment's image out of the newest valid
// checkpoint generation without restoring anything locally — the reader a
// replica peer uses to ship a generation's payload over the interconnect.
// It returns ErrNoCheckpoint on fresh NVM, ErrCorruptCheckpoint when
// headers are present but no generation validates, and ErrNotFound when the
// generation holds no segment of that name.
func (sys *System) CheckpointSegment(name string) (*SegmentImage, error) {
	sbBase, sbSize := sys.M.PM.Superblock()
	if sbSize == 0 {
		return nil, fmt.Errorf("%w: machine has no NVM superblock", ErrInvalid)
	}
	gens, err := sys.generations(sbBase, sbSize)
	if err != nil {
		return nil, err
	}
	best, ok := newestValid(gens)
	if !ok {
		for _, g := range gens {
			if g.magic {
				return nil, fmt.Errorf("%w: headers present but no generation validates", ErrCorruptCheckpoint)
			}
		}
		return nil, ErrNoCheckpoint
	}
	data := make([]byte, best.size)
	if err := sys.M.PM.ReadAt(best.base+hdrSize, data); err != nil {
		return nil, err
	}
	var img persistImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("%w: decoding generation %d: %v", ErrCorruptCheckpoint, best.seq, err)
	}
	for _, ps := range img.Segs {
		if ps.Name != name {
			continue
		}
		pageSize := ps.PageSize
		if pageSize == 0 {
			pageSize = arch.PageSize
		}
		out := &SegmentImage{
			Name: ps.Name, Size: ps.Size, PageSize: pageSize,
			Lockable: ps.Lockable, Seq: best.seq,
		}
		return out.read(sys, ps.Frames)
	}
	return nil, fmt.Errorf("%w: generation %d holds no segment %q", ErrNotFound, best.seq, name)
}

// SegmentImageOf reads a live segment's current content into a SegmentImage
// without going through the NVM superblock — the extraction path for frozen
// fork segments, whose frames are immutable by construction. pages names the
// pages to read (a delta: the set vm.Object.Dirty recorded); nil means every
// page. Each is resolved through the object's COW parent chain (a
// second-generation frozen view owns only the pages written since the
// previous fork; older content lives upstream), so a full image is always
// complete. seq stamps the image's generation for the applier.
//
// The read never mutates the object: unmaterialized pages are simply absent
// from the image and read as zeros on apply.
func (sys *System) SegmentImageOf(name string, seq uint64, pages []uint64) (*SegmentImage, error) {
	sys.mu.Lock()
	seg, ok := sys.segByName[name]
	sys.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: segment %q", ErrNotFound, name)
	}
	obj := seg.Obj
	frames := map[uint64]arch.PhysAddr{}
	if pages == nil {
		frames = obj.ResolvedFrameMap()
	}
	for _, idx := range pages {
		if pa, ok := obj.ResolveFrame(idx); ok {
			frames[idx] = pa
		}
	}
	out := &SegmentImage{
		Name: seg.Name, Size: seg.Size, PageSize: obj.PageSize,
		Lockable: seg.Lockable(), Seq: seq,
	}
	return out.read(sys, frames)
}

// Restore rebuilds the registries from the newest valid checkpoint
// generation in the NVM superblock into this (freshly booted) System. It
// must be called before any VASes or global segments are created, so
// restored IDs cannot collide.
//
// It returns ErrNoCheckpoint when the superblock has never held a committed
// image (fresh NVM) and ErrCorruptCheckpoint when headers are present but no
// generation validates — callers can reformat in the first case and must
// not silently discard data in the second.
func (sys *System) Restore() error {
	sbBase, sbSize := sys.M.PM.Superblock()
	if sbSize == 0 {
		return fmt.Errorf("%w: machine has no NVM superblock", ErrInvalid)
	}
	gens, err := sys.generations(sbBase, sbSize)
	if err != nil {
		return err
	}
	best, ok := newestValid(gens)
	if !ok {
		for _, g := range gens {
			if g.magic {
				return fmt.Errorf("%w: headers present but no generation validates", ErrCorruptCheckpoint)
			}
		}
		return ErrNoCheckpoint
	}
	data := make([]byte, best.size)
	if err := sys.M.PM.ReadAt(best.base+hdrSize, data); err != nil {
		return err
	}
	var img persistImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return fmt.Errorf("%w: decoding generation %d: %v", ErrCorruptCheckpoint, best.seq, err)
	}

	sys.mu.Lock()
	defer sys.mu.Unlock()
	if len(sys.segs) > 0 || len(sys.vases) > 0 {
		return fmt.Errorf("%w: restore into a non-empty system", ErrBusy)
	}
	segByID := map[SegID]*Segment{}
	for _, ps := range img.Segs {
		pageSize := ps.PageSize
		if pageSize == 0 {
			pageSize = arch.PageSize
		}
		seg := &Segment{
			ID: ps.ID, Name: ps.Name, Base: ps.Base, Size: ps.Size,
			Obj:   vm.NewObjectFromFramesPages(sys.M.PM, ps.Name, ps.Size, mem.TierNVM, pageSize, ps.Frames),
			Owner: ps.Owner, perm: ps.Perm, lockable: ps.Lockable,
		}
		if err := sys.registerSegLocked(seg); err != nil {
			return fmt.Errorf("%w: generation %d: %v", ErrCorruptCheckpoint, best.seq, err)
		}
		segByID[seg.ID] = seg
	}
	for _, pv := range img.Vases {
		v := &VAS{ID: pv.ID, Name: pv.Name, Owner: pv.Owner, Mode: pv.Mode,
			tag: pv.Tag, atts: map[*Attachment]struct{}{}}
		for _, m := range pv.Segs {
			seg, ok := segByID[m.Seg]
			if !ok {
				return fmt.Errorf("%w: generation %d references missing segment %d", ErrCorruptCheckpoint, best.seq, m.Seg)
			}
			v.segs = append(v.segs, SegMapping{Seg: seg, Perm: m.Perm})
		}
		sys.vases[v.ID] = v
		sys.vasByName[v.Name] = v
		sys.P.VASCreated(pv.Owner, v)
	}
	if img.NextVAS > sys.nextVAS {
		sys.nextVAS = img.NextVAS
	}
	if img.NextSeg > sys.nextSeg {
		sys.nextSeg = img.NextSeg
	}
	if img.NextASID > sys.nextASID {
		sys.nextASID = img.NextASID
	}
	return nil
}
