package safety

// OptimizeChecks removes provably redundant runtime checks from an
// instrumented program — one of the optimizations §4.3 defers to future
// work ("there are situations where our conservative algorithm will insert
// unnecessary safety checks which a more involved analysis would elide").
//
// A checkderef on value p verifies a predicate over (provenance of p,
// current VAS). The provenance of an SSA value never changes, and the
// current VAS changes only at switch instructions or calls (which may
// switch internally). So within a basic block, a check is redundant if an
// identical check already executed since the last switch/call: if the
// earlier check passed, the later one must pass too; if it trapped,
// execution never reached the later one. The same argument covers
// checkstore over the (pointer, value) pair.
func OptimizeChecks(p *Program) (*Program, int) {
	out := cloneProgram(p)
	removed := 0
	for _, f := range out.Funcs {
		for _, blk := range f.Blocks {
			derefOK := map[string]bool{}
			storeOK := map[[2]string]bool{}
			var kept []*Instr
			for _, ins := range blk.Instrs {
				switch ins.Op {
				case OpSwitch, OpCall:
					// The active VAS may have changed: every cached check
					// result is stale.
					derefOK = map[string]bool{}
					storeOK = map[[2]string]bool{}
				case OpCheckDeref:
					if derefOK[ins.Args[0]] {
						removed++
						continue
					}
					derefOK[ins.Args[0]] = true
				case OpCheckStore:
					key := [2]string{ins.Args[0], ins.Args[1]}
					if storeOK[key] {
						removed++
						continue
					}
					storeOK[key] = true
				}
				kept = append(kept, ins)
			}
			blk.Instrs = kept
		}
	}
	return out, removed
}
