// Dense per-function value and instruction numbering. The analyses index
// their fact tables and worklists by these numbers (slice storage instead
// of map storage on the solver hot path); irgen assigns the numbering
// after lowering and refreshes it after mem2reg, so analysis passes can
// rely on it without recomputing.

package ir

// NumberValues assigns the function's dense numbering: parameters take
// 0..len(Params)-1 (their Index), every value-producing instruction takes
// the next number in block order, and every instruction (value-producing
// or not) additionally gets a dense instruction index. The value number
// is also the instruction's SSA name (%t<n>), so rendering reads it and
// writes nothing. It returns the number of numbered values. Safe to call again after the block or
// instruction lists change; not safe concurrently with readers.
func (f *Function) NumberValues() int {
	nv := len(f.Params)
	ni := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.setInstrIndex(ni)
			ni++
			if _, isVal := in.(Value); !isVal {
				in.setValueNum(-1)
				continue
			}
			in.setValueNum(nv)
			nv++
		}
	}
	f.numValues = nv
	f.numInstrs = ni
	return nv
}

// NumValues returns the size of the value numbering assigned by
// NumberValues (0 if never assigned).
func (f *Function) NumValues() int { return f.numValues }

// NumInstrs returns the number of instructions indexed by NumberValues.
func (f *Function) NumInstrs() int { return f.numInstrs }

// ValueNum returns v's dense value number within its function, or -1 for
// values outside the numbering (constants, globals, function references,
// or instructions of a function that was never numbered).
func ValueNum(v Value) int {
	switch x := v.(type) {
	case *Param:
		return x.Index
	case Instr:
		return x.valueNum()
	}
	return -1
}

// InstrIndex returns in's dense instruction index within its function, or
// -1 if the function was never numbered.
func InstrIndex(in Instr) int { return in.instrIndex() }
