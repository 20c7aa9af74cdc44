package safety

import (
	"errors"
	"fmt"
)

// The interpreter executes IR programs over a miniature multi-VAS memory
// model with tagged pointers: every pointer carries the address space it
// was created in (or the common region). Raw execution dereferences
// through the *currently active* VAS — exactly like hardware — so a
// wrong-VAS dereference silently reads that VAS's memory. The Oracle mode
// records such violations (the dynamic ground truth the static analysis is
// tested against), and the Checked mode traps at the check instructions
// inserted by Instrument.

// ErrCheckFailed is returned when an inserted runtime check traps.
var ErrCheckFailed = errors.New("safety: runtime check failed")

// Value is an interpreter value: an integer or a tagged pointer.
type Value struct {
	IsPtr  bool
	VAS    int  // provenance tag (pointer only)
	Common bool // pointer into the common region
	Addr   uint64
	Int    int64
}

func (v Value) String() string {
	if !v.IsPtr {
		return fmt.Sprintf("%d", v.Int)
	}
	if v.Common {
		return fmt.Sprintf("ptr(common,%#x)", v.Addr)
	}
	return fmt.Sprintf("ptr(v%d,%#x)", v.VAS, v.Addr)
}

// Violation records one dynamic safety violation observed by the oracle.
type Violation struct {
	Fn    string
	Block string
	Index int
	Kind  DiagKind
	Note  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s#%d: %s: %s", v.Fn, v.Block, v.Index, v.Kind, v.Note)
}

// Mode selects the interpreter's checking behaviour.
type Mode int

const (
	// ModeRaw executes like hardware: wrong-VAS dereferences silently
	// access the active VAS's memory.
	ModeRaw Mode = iota
	// ModeOracle executes like ModeRaw but records every violation of
	// the §3.3 rules.
	ModeOracle
	// ModeChecked additionally traps when an inserted checkderef or
	// checkstore fails.
	ModeChecked
)

// Interp executes a program.
type Interp struct {
	prog *Program
	mode Mode

	cur        int // active VAS
	common     map[uint64]Value
	vases      map[int]map[uint64]Value
	nextAddr   uint64
	violations []Violation
	steps      int

	// MaxSteps bounds execution (loops in random programs).
	MaxSteps int
}

// NewInterp creates an interpreter starting in VAS 0.
func NewInterp(p *Program, mode Mode) *Interp {
	return &Interp{
		prog: p, mode: mode,
		common: map[uint64]Value{}, vases: map[int]map[uint64]Value{0: {}},
		nextAddr: 0x1000, MaxSteps: 100000,
	}
}

// Violations returns the oracle's recorded violations.
func (ip *Interp) Violations() []Violation { return ip.violations }

func (ip *Interp) vasMem(id int) map[uint64]Value {
	m, ok := ip.vases[id]
	if !ok {
		m = map[uint64]Value{}
		ip.vases[id] = m
	}
	return m
}

// Run executes the entry function with integer-zero arguments and returns
// its result (zero Value for void returns).
func (ip *Interp) Run() (Value, error) {
	f := ip.prog.EntryFunc()
	if f == nil {
		return Value{}, fmt.Errorf("safety: no entry function")
	}
	env := map[string]Value{}
	for _, prm := range f.Params {
		env[prm] = Value{}
	}
	return ip.call(f, env)
}

func (ip *Interp) call(f *Func, env map[string]Value) (Value, error) {
	blk := f.Entry()
	prevBlock := ""
	for {
		var branched bool
		for idx, ins := range blk.Instrs {
			ip.steps++
			if ip.steps > ip.MaxSteps {
				return Value{}, fmt.Errorf("safety: step limit exceeded")
			}
			switch ins.Op {
			case OpSwitch:
				if ins.VAS != NoVAS {
					ip.cur = ins.VAS
				} else {
					ip.cur = int(env[ins.Args[0]].Int)
				}
			case OpVCast:
				v := env[ins.Args[0]]
				v.IsPtr = true
				v.Common = false
				v.VAS = ins.VAS
				env[ins.Dst] = v
			case OpAlloca, OpGlobal:
				addr := ip.alloc()
				env[ins.Dst] = Value{IsPtr: true, Common: true, Addr: addr}
			case OpMalloc:
				addr := ip.alloc()
				env[ins.Dst] = Value{IsPtr: true, VAS: ip.cur, Addr: addr}
			case OpCopy:
				env[ins.Dst] = env[ins.Args[0]]
			case OpArith:
				a, b := env[ins.Args[0]], env[ins.Args[1]]
				switch {
				case a.IsPtr:
					a.Addr += uint64(b.Int)
					env[ins.Dst] = a
				case b.IsPtr:
					b.Addr += uint64(a.Int)
					env[ins.Dst] = b
				default:
					env[ins.Dst] = Value{Int: a.Int + b.Int}
				}
			case OpPhi:
				picked := false
				for k, src := range ins.Blocks {
					if src == prevBlock {
						env[ins.Dst] = env[ins.Args[k]]
						picked = true
						break
					}
				}
				if !picked {
					return Value{}, fmt.Errorf("safety: phi in %s has no arm for pred %q", blk.Name, prevBlock)
				}
			case OpLoad:
				p := env[ins.Args[0]]
				ip.observeDeref(f.Name, blk.Name, idx, p)
				env[ins.Dst] = ip.loadFrom(p)
			case OpStore:
				p := env[ins.Args[0]]
				v := env[ins.Args[1]]
				ip.observeDeref(f.Name, blk.Name, idx, p)
				ip.observeStore(f.Name, blk.Name, idx, p, v)
				ip.storeTo(p, v)
			case OpCall:
				callee := ip.prog.Funcs[ins.Callee]
				cenv := map[string]Value{}
				for k, prm := range callee.Params {
					if k < len(ins.Args) {
						cenv[prm] = env[ins.Args[k]]
					}
				}
				ret, err := ip.call(callee, cenv)
				if err != nil {
					return Value{}, err
				}
				if ins.Dst != "" {
					env[ins.Dst] = ret
				}
			case OpRet:
				if len(ins.Args) > 0 {
					return env[ins.Args[0]], nil
				}
				return Value{}, nil
			case OpBr:
				prevBlock, blk, branched = blk.Name, f.Block(ins.Blocks[0]), true
			case OpCondBr:
				tgt := ins.Blocks[1]
				if env[ins.Args[0]].Int != 0 {
					tgt = ins.Blocks[0]
				}
				prevBlock, blk, branched = blk.Name, f.Block(tgt), true
			case OpConst:
				env[ins.Dst] = Value{Int: ins.Const}
			case OpCheckDeref:
				p := env[ins.Args[0]]
				if ip.mode == ModeChecked && derefViolates(p, ip.cur) {
					return Value{}, fmt.Errorf("%w: deref of %v while VAS %d active", ErrCheckFailed, p, ip.cur)
				}
			case OpCheckStore:
				p, v := env[ins.Args[0]], env[ins.Args[1]]
				if ip.mode == ModeChecked && checkStoreTraps(p, v, ip.cur) {
					return Value{}, fmt.Errorf("%w: store of %v to %v while VAS %d active", ErrCheckFailed, v, p, ip.cur)
				}
			}
			if branched {
				break
			}
		}
		if !branched {
			return Value{}, fmt.Errorf("safety: block %s fell through", blk.Name)
		}
	}
}

func (ip *Interp) alloc() uint64 {
	a := ip.nextAddr
	ip.nextAddr += 16
	return a
}

// loadFrom reads through a pointer with hardware semantics: the address is
// resolved in the common region if the pointer targets it, otherwise in
// the *currently active* VAS regardless of the pointer's provenance.
func (ip *Interp) loadFrom(p Value) Value {
	if !p.IsPtr {
		return Value{} // wild integer deref reads zero
	}
	if p.Common {
		return ip.common[p.Addr]
	}
	return ip.vasMem(ip.cur)[p.Addr]
}

func (ip *Interp) storeTo(p, v Value) {
	if !p.IsPtr {
		return
	}
	if p.Common {
		ip.common[p.Addr] = v
		return
	}
	ip.vasMem(ip.cur)[p.Addr] = v
}

// derefViolates implements the dynamic deref rule: a non-common pointer
// may only be dereferenced while its VAS is active (§3.3).
func derefViolates(p Value, cur int) bool {
	return p.IsPtr && !p.Common && p.VAS != cur
}

// storeRuleViolated is the oracle's provenance-based store rule (§3.3):
// a pointer may be stored to the common region, or within the region of
// its own VAS; storing a common-region pointer outside the common region,
// or a pointer into another VAS's region, is a violation. (Whether the
// *target* is dereferenced in the right VAS is the deref rule, observed
// separately at the same instruction.)
func storeRuleViolated(p, v Value) bool {
	if !v.IsPtr || !p.IsPtr || p.Common {
		return false
	}
	return v.Common || v.VAS != p.VAS
}

// checkStoreTraps is the inserted runtime check exactly as §4.3 words it:
// "either p points to the common region or p and v both point to the
// current VAS".
func checkStoreTraps(p, v Value, cur int) bool {
	if !v.IsPtr || !p.IsPtr {
		return false
	}
	if p.Common {
		return false
	}
	return p.VAS != cur || v.Common || v.VAS != cur
}

func (ip *Interp) observeDeref(fn, blk string, idx int, p Value) {
	if ip.mode == ModeRaw {
		return
	}
	if derefViolates(p, ip.cur) {
		ip.violations = append(ip.violations, Violation{fn, blk, idx, DiagDeref,
			fmt.Sprintf("deref of %v while VAS %d active", p, ip.cur)})
	}
}

func (ip *Interp) observeStore(fn, blk string, idx int, p, v Value) {
	if ip.mode == ModeRaw {
		return
	}
	if storeRuleViolated(p, v) {
		ip.violations = append(ip.violations, Violation{fn, blk, idx, DiagStore,
			fmt.Sprintf("store of %v to %v while VAS %d active", v, p, ip.cur)})
	}
}
