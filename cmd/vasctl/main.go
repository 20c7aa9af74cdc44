// Command vasctl drives a simulated SpaceJMP system interactively: create
// and inspect VASes and segments, attach, switch, and peek/poke memory.
// It reads commands from the arguments (joined by ';') or, with none, line
// by line from standard input.
//
// Commands:
//
//	vas <name> <mode>                create a VAS (mode octal, e.g. 660)
//	seg <name> <base> <size> <perm>  create a segment (perm r|rw|rx|rwx)
//	attach-seg <vas> <seg> <perm>    map a segment into a VAS
//	attach <vas>                     attach the process; prints the handle
//	switch <handle|primary>          switch the thread
//	poke <addr> <value>              store a 64-bit value
//	peek <addr>                      load a 64-bit value
//	tag <vas>                        assign a TLB tag
//	ls                               list VASes and segments
//	stats                            machine-wide observability counters
//	trace                            recent trace events (switches, attaches)
//
// Numbers accept 0x prefixes and k/m/g suffixes.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"spacejmp"
	"spacejmp/internal/arch"
)

type shell struct {
	sys     *spacejmp.System
	th      *spacejmp.Thread
	handles map[string]spacejmp.Handle
	vases   map[string]spacejmp.VASID
	segs    map[string]spacejmp.SegID
}

func main() {
	sys := spacejmp.NewDragonFly(spacejmp.DefaultMachine())
	sys.EnableStats(256) // before the first process, so every PT is observed
	proc, err := sys.NewProcess(spacejmp.Creds{UID: uint32(os.Getuid()), GID: uint32(os.Getgid())})
	if err != nil {
		fatal(err)
	}
	th, err := proc.NewThread()
	if err != nil {
		fatal(err)
	}
	sh := &shell{sys: sys, th: th,
		handles: map[string]spacejmp.Handle{}, vases: map[string]spacejmp.VASID{}, segs: map[string]spacejmp.SegID{}}

	if len(os.Args) > 1 {
		for _, cmd := range strings.Split(strings.Join(os.Args[1:], " "), ";") {
			if err := sh.run(strings.Fields(strings.TrimSpace(cmd))); err != nil {
				fatal(err)
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("vasctl> ")
	for sc.Scan() {
		if err := sh.run(strings.Fields(sc.Text())); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		fmt.Print("vasctl> ")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vasctl:", err)
	os.Exit(1)
}

func (s *shell) run(args []string) error {
	if len(args) == 0 {
		return nil
	}
	switch args[0] {
	case "vas":
		if len(args) != 3 {
			return fmt.Errorf("usage: vas <name> <mode>")
		}
		mode, err := strconv.ParseUint(args[2], 8, 16)
		if err != nil {
			return err
		}
		vid, err := s.th.VASCreate(args[1], uint16(mode))
		if err != nil {
			return err
		}
		s.vases[args[1]] = vid
		fmt.Printf("vas %q = id %d\n", args[1], vid)
	case "seg":
		if len(args) != 5 {
			return fmt.Errorf("usage: seg <name> <base> <size> <perm>")
		}
		base, err := parseNum(args[2])
		if err != nil {
			return err
		}
		size, err := parseNum(args[3])
		if err != nil {
			return err
		}
		perm, err := parsePerm(args[4])
		if err != nil {
			return err
		}
		sid, err := s.th.SegAlloc(args[1], spacejmp.VirtAddr(base), size, perm)
		if err != nil {
			return err
		}
		s.segs[args[1]] = sid
		fmt.Printf("segment %q = id %d at %#x (+%d)\n", args[1], sid, base, size)
	case "attach-seg":
		if len(args) != 4 {
			return fmt.Errorf("usage: attach-seg <vas> <seg> <perm>")
		}
		perm, err := parsePerm(args[3])
		if err != nil {
			return err
		}
		return s.th.SegAttachVAS(s.vases[args[1]], s.segs[args[2]], perm)
	case "attach":
		if len(args) != 2 {
			return fmt.Errorf("usage: attach <vas>")
		}
		h, err := s.th.VASAttach(s.vases[args[1]])
		if err != nil {
			return err
		}
		s.handles[args[1]] = h
		fmt.Printf("attached %q as handle %d\n", args[1], h)
	case "switch":
		if len(args) != 2 {
			return fmt.Errorf("usage: switch <vas|primary>")
		}
		h := spacejmp.PrimaryHandle
		if args[1] != "primary" {
			var ok bool
			if h, ok = s.handles[args[1]]; !ok {
				return fmt.Errorf("not attached to %q", args[1])
			}
		}
		if err := s.th.VASSwitch(h); err != nil {
			return err
		}
		fmt.Printf("now in %s\n", args[1])
	case "poke":
		if len(args) != 3 {
			return fmt.Errorf("usage: poke <addr> <value>")
		}
		addr, err := parseNum(args[1])
		if err != nil {
			return err
		}
		val, err := parseNum(args[2])
		if err != nil {
			return err
		}
		return s.th.Store64(spacejmp.VirtAddr(addr), val)
	case "peek":
		if len(args) != 2 {
			return fmt.Errorf("usage: peek <addr>")
		}
		addr, err := parseNum(args[1])
		if err != nil {
			return err
		}
		v, err := s.th.Load64(spacejmp.VirtAddr(addr))
		if err != nil {
			return err
		}
		fmt.Printf("%#x: %d (%#x)\n", addr, v, v)
	case "tag":
		if len(args) != 2 {
			return fmt.Errorf("usage: tag <vas>")
		}
		return s.th.VASCtl(s.vases[args[1]], spacejmp.SetTag())
	case "ls":
		for name, vid := range s.vases {
			v, err := s.sys.VASByID(vid)
			if err != nil {
				continue
			}
			fmt.Printf("vas %-12s id=%d mode=%o tag=%d attachments=%d\n",
				name, vid, v.Mode, v.Tag(), v.AttachCount())
			for _, m := range v.Mappings() {
				fmt.Printf("  seg %-12s %v +%d %v lockable=%v\n",
					m.Seg.Name, m.Seg.Base, m.Seg.Size, m.Perm, m.Seg.Lockable())
			}
		}
		for name, sid := range s.segs {
			seg, err := s.sys.SegByID(sid)
			if err != nil {
				continue
			}
			fmt.Printf("seg %-12s id=%d %v +%d %v\n", name, sid, seg.Base, seg.Size, seg.Perm())
		}
	case "stats":
		return s.sys.Stats().WriteText(os.Stdout)
	case "trace":
		for _, ev := range s.sys.Tracer().Events() {
			fmt.Println(ev)
		}
	case "help":
		fmt.Println("commands: vas seg attach-seg attach switch poke peek tag ls stats trace")
	default:
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
	return nil
}

func parseNum(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"), strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	return v * mult, err
}

func parsePerm(s string) (spacejmp.Perm, error) {
	var p spacejmp.Perm
	for _, ch := range s {
		switch ch {
		case 'r':
			p |= arch.PermRead
		case 'w':
			p |= arch.PermWrite
		case 'x':
			p |= arch.PermExec
		default:
			return 0, fmt.Errorf("bad perm %q", s)
		}
	}
	return p, nil
}
