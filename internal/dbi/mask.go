// mask.go is the bit-parallel encode core: the single-word EncodeMask
// paths the compiled kernels bind, the integer-cost trellis behind the
// optimal encoders, and the
// scaled-integer weight detection that decides when exact integer
// arithmetic may replace the float dynamic program.
//
// The per-beat cost algebra the whole file runs on: let y = ones(p ^ v) be
// the payload-domain Hamming distance between consecutive payload bytes p
// and v, and pv = ones(v). Then for the four trellis edges into a beat
// (predecessor plain/inverted × this beat plain/inverted):
//
//	transitions = y       when predecessor and beat share an inversion
//	              9 - y   when they differ (8-y DQ toggles + 1 DBI toggle)
//	zeros       = 8 - pv  transmitted plain
//	              pv + 1  transmitted inverted (the +1 is the low DBI wire)
//
// Two table lookups per beat therefore price all four edges, which is what
// makes the integer trellis and the Gray-code exhaustive search so much
// cheaper than the BeatCost/Advance formulation they replace.
package dbi

import (
	"math"
	"math/bits"

	"dbiopt/internal/bus"
)

// Integer-weight detection. Shortest paths are invariant under uniform
// positive scaling of the edge weights, so whenever alpha and beta share a
// power-of-two scale that makes both exact integers, the float trellis can
// run in exact integer arithmetic with identical decisions — float64
// arithmetic on such dyadic weights is itself exact at these magnitudes,
// which is what keeps the two paths bit-identical rather than merely
// equivalent. OPT-FIXED (1, 1) and QUANTISED (3-bit integers) always
// qualify; arbitrary OPT/GREEDY/EXHAUSTIVE weights are detected at encode
// time and fall back to the float path when no exact scale exists.
const (
	// maxIntegerScaleBits bounds the power-of-two scale search: weights
	// with more than 20 fractional bits fall back to the float path.
	maxIntegerScaleBits = 20
	// maxIntegerCoefficient bounds the scaled coefficients so a whole
	// trellis (≤ 64 beats × ≤ 9 wires × alpha+beta) stays far from int64
	// overflow.
	maxIntegerCoefficient = 1 << 31
)

// integerize reports whether the weights are exactly representable as
// integer coefficients after scaling both by one common power of two, and
// returns those coefficients. Negative and NaN weights are never
// representable (they take the float path, preserving its exact legacy
// behaviour).
func (w Weights) integerize() (ia, ib int64, ok bool) {
	a, b := w.Alpha, w.Beta
	if !(a >= 0) || !(b >= 0) {
		return 0, 0, false
	}
	for k := 0; k <= maxIntegerScaleBits; k++ {
		if a == math.Trunc(a) && b == math.Trunc(b) {
			if a >= maxIntegerCoefficient || b >= maxIntegerCoefficient {
				return 0, 0, false
			}
			return int64(a), int64(b), true
		}
		a *= 2
		b *= 2
	}
	return 0, 0, false
}

// dcInv[v] is 1 iff the JEDEC DC rule inverts payload byte v (five or more
// zeros), precomputed so the DC mask loop is one lookup and one shift per
// beat.
var dcInv [256]byte

func init() {
	for v := 0; v < 256; v++ {
		if bus.Zeros(byte(v)) >= 5 {
			dcInv[v] = 1
		}
	}
}

// EncodeMask computes the per-beat inversion pattern of b as a packed
// bus.InvMask, bit-identical to the flags EncodeInto produces; ok is false
// past bus.MaxMaskBeats. RAW never inverts.
//
//dbi:hotpath
func (Raw) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	return 0, len(b) <= bus.MaxMaskBeats
}

// EncodeMask is the single-word DC pattern (see Raw.EncodeMask): the rule
// is a pure per-byte table lookup.
//
//dbi:hotpath
func (DC) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	if len(b) > bus.MaxMaskBeats {
		return 0, false
	}
	var m bus.InvMask
	for t, v := range b {
		m |= bus.InvMask(dcInv[v]) << t
	}
	return m, true
}

// acMaskFrom runs the AC recurrence from an explicit (payload-domain
// previous byte, previous-beat-inverted) seed, producing decisions for
// b[from:] into m. The JEDEC rule "invert iff inversion yields strictly
// fewer transitions" reduces, in payload domain, to
//
//	invert(t) = inverted(t-1) XOR (ones(p ^ v) >= 5)
//
// because against an inverted predecessor the DQ distance complements
// (8-y) and the DBI-toggle bias flips sign; working the inequality through
// both cases lands on the same >= 5 threshold, XORed with the predecessor's
// inversion. One table lookup and one XOR per beat, no wire state at all.
//
//dbi:hotpath
func acMaskFrom(m bus.InvMask, pp byte, pinv bool, b bus.Burst, from int) bus.InvMask {
	for t := from; t < len(b); t++ {
		v := b[t]
		inv := (bus.Ones(pp^v) >= 5) != pinv
		if inv {
			m |= 1 << t
		}
		pp, pinv = v, inv
	}
	return m
}

// acSeed converts a wire-level line state into the payload-domain seed of
// the AC recurrence: the payload byte that would have produced the wires,
// and whether it was inverted.
func acSeed(prev bus.LineState) (pp byte, pinv bool) {
	if prev.DBI {
		return prev.Data, false
	}
	return ^prev.Data, true
}

// EncodeMask is the single-word JEDEC AC pattern (see Raw.EncodeMask).
//
//dbi:hotpath
func (AC) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	if len(b) > bus.MaxMaskBeats {
		return 0, false
	}
	pp, pinv := acSeed(prev)
	return acMaskFrom(0, pp, pinv, b, 0), true
}

// EncodeMask is the single-word ACDC pattern (see Raw.EncodeMask): the DC
// table decides the first beat, the AC recurrence the rest.
//
//dbi:hotpath
func (ACDC) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	if len(b) > bus.MaxMaskBeats {
		return 0, false
	}
	if len(b) == 0 {
		return 0, true
	}
	m := bus.InvMask(dcInv[b[0]])
	return acMaskFrom(m, b[0], m == 1, b, 1), true
}

// trellisMaskInt is the integer-cost Viterbi forward/backward pass for
// bursts within the mask bound: backpointers live in two uint64 registers
// (bit i of fromPlain/fromInv records whether the cheapest path into beat
// i's plain/inverted node came from the inverted node of beat i-1), so the
// whole search touches no memory beyond the burst itself.
//
//dbi:hotpath
func trellisMaskInt(prev bus.LineState, b bus.Burst, ia, ib int64) bus.InvMask {
	n := len(b)
	pv := int64(bus.Ones(b[0]))
	y := int64(bus.Ones(prev.Data ^ b[0]))
	var dbiPlain, dbiInv int64 // DBI-wire toggle entering beat 0
	if prev.DBI {
		dbiInv = 1
	} else {
		dbiPlain = 1
	}
	costPlain := ia*(y+dbiPlain) + ib*(8-pv)
	costInv := ia*(8-y+dbiInv) + ib*(pv+1)

	var fromPlain, fromInv uint64
	pb := b[0]
	for i := 1; i < n; i++ {
		v := b[i]
		y = int64(bus.Ones(pb ^ v))
		pv = int64(bus.Ones(v))
		pb = v
		zPlain := ib * (8 - pv)
		zInv := ib * (pv + 1)
		tSame := ia * y
		tDiff := ia * (9 - y)

		// Branch-free minimum selection: the comparisons compile to
		// conditional moves, so the data-dependent 50/50 branches of the
		// scalar trellis never reach the branch predictor.
		nextPlain, fp := costPlain+tSame+zPlain, uint64(0)
		if c := costInv + tDiff + zPlain; c < nextPlain {
			nextPlain, fp = c, 1
		}
		nextInv, fi := costPlain+tDiff+zInv, uint64(0)
		if c := costInv + tSame + zInv; c < nextInv {
			nextInv, fi = c, 1
		}
		fromPlain |= fp << i
		fromInv |= fi << i
		costPlain, costInv = nextPlain, nextInv
	}
	return backtrackMask(fromPlain, fromInv, costInv < costPlain, n)
}

// trellisMaskFloat is the same search in float64 arithmetic, for weights
// with no exact integer scale. Costs are formed exactly as the legacy
// trellis formed them (alpha*transitions + beta*zeros, accumulated in beat
// order), so its decisions — including how float rounding breaks near-ties
// — are bit-identical to the []bool implementation it fast-paths.
func trellisMaskFloat(prev bus.LineState, b bus.Burst, w Weights) bus.InvMask {
	n := len(b)
	costPlain := w.Cost(bus.BeatCost(prev, b[0], false))
	costInv := w.Cost(bus.BeatCost(prev, b[0], true))

	var fromPlain, fromInv uint64
	for i := 1; i < n; i++ {
		v := b[i]
		plainState := bus.Advance(prev, b[i-1], false)
		invState := bus.Advance(prev, b[i-1], true)

		ePlainPlain := w.Cost(bus.BeatCost(plainState, v, false))
		eInvPlain := w.Cost(bus.BeatCost(invState, v, false))
		ePlainInv := w.Cost(bus.BeatCost(plainState, v, true))
		eInvInv := w.Cost(bus.BeatCost(invState, v, true))

		nextPlain := costPlain + ePlainPlain
		if c := costInv + eInvPlain; c < nextPlain {
			nextPlain = c
			fromPlain |= 1 << i
		}
		nextInv := costPlain + ePlainInv
		if c := costInv + eInvInv; c < nextInv {
			nextInv = c
			fromInv |= 1 << i
		}
		costPlain, costInv = nextPlain, nextInv
	}
	return backtrackMask(fromPlain, fromInv, costInv < costPlain, n)
}

// backtrackMask walks the register-resident trellis decisions backwards
// from the cheaper final node (ties prefer non-inverted, matching the
// per-byte schemes), emitting the chosen inversion of each beat as a mask
// bit. The walk is branch-free: the per-beat state bit selects between the
// two backpointer registers by masking, not branching, because the
// direction is data-dependent and would mispredict half the time.
//
//dbi:hotpath
func backtrackMask(fromPlain, fromInv uint64, invCheaper bool, n int) bus.InvMask {
	var m uint64
	var s uint64
	if invCheaper {
		s = 1
	}
	for i := n - 1; i >= 0; i-- {
		m |= s << i
		sel := -s // 0 or all-ones: select fromInv when the beat is inverted
		s = (fromInv&sel | fromPlain&^sel) >> i & 1
	}
	return bus.InvMask(m)
}

// EncodeMask is the single-word path of the optimal encoder, which
// EncodeInto runs within the mask bound: the integer trellis when the
// weights have an exact integer scale, the float trellis otherwise. ok is
// false past bus.MaxMaskBeats.
//
//dbi:hotpath
func (o Opt) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	n := len(b)
	if n > bus.MaxMaskBeats {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	if ia, ib, ok := o.Weights.integerize(); ok {
		return trellisMaskInt(prev, b, ia, ib), true
	}
	return trellisMaskFloat(prev, b, o.Weights), true
}

// EncodeMask is the single-word path of the quantised encoder, which
// EncodeInto runs within the mask bound: its coefficients are integers by
// construction, so the integer trellis always applies.
//
//dbi:hotpath
func (q Quantized) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	n := len(b)
	if n > bus.MaxMaskBeats {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	return trellisMaskInt(prev, b, int64(q.Alpha), int64(q.Beta)), true
}

// EncodeMask is the exhaustive reference's fast path, which EncodeInto
// runs when it applies: a Gray-code walk over all 2^n patterns with O(1)
// incremental cost deltas. It needs exact integer weights (delta
// accumulation must not drift) and the usual beat bound; everything else
// declines to the full float scan.
//
// Edge costs E[i][from<<1|to] are precomputed once — the same four-edge
// algebra the trellis uses — and each Gray step flips exactly one beat t,
// touching only edge t (predecessor unchanged) and edge t+1 (successor
// unchanged). Ties resolve to the numerically smallest pattern, exactly as
// the ascending binary scan resolved them, so the winning mask is
// bit-identical to the legacy implementation's.
//
//dbi:hotpath
func (e Exhaustive) EncodeMask(prev bus.LineState, b bus.Burst) (bus.InvMask, bool) {
	n := len(b)
	if n > MaxExhaustiveBeats {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	ia, ib, ok := e.Weights.integerize()
	if !ok {
		return 0, false
	}
	return exhaustiveMask(prev, b, ia, ib), true
}

// exhaustiveMask is the Gray-code scan proper, shared by the method above
// and the compiled kernel (which integerizes the weights once
// at compile time instead of per call). The caller guarantees
// 0 < len(b) <= MaxExhaustiveBeats and exact integer coefficients.
//
//dbi:hotpath
func exhaustiveMask(prev bus.LineState, b bus.Burst, ia, ib int64) bus.InvMask {
	n := len(b)
	var first [2]int64
	var edge [MaxExhaustiveBeats][4]int64
	pv := int64(bus.Ones(b[0]))
	y := int64(bus.Ones(prev.Data ^ b[0]))
	var dbiPlain, dbiInv int64
	if prev.DBI {
		dbiInv = 1
	} else {
		dbiPlain = 1
	}
	first[0] = ia*(y+dbiPlain) + ib*(8-pv)
	first[1] = ia*(8-y+dbiInv) + ib*(pv+1)
	for i := 1; i < n; i++ {
		y = int64(bus.Ones(b[i-1] ^ b[i]))
		pv = int64(bus.Ones(b[i]))
		zPlain := ib * (8 - pv)
		zInv := ib * (pv + 1)
		tSame := ia * y
		tDiff := ia * (9 - y)
		edge[i][0b00] = tSame + zPlain // plain -> plain
		edge[i][0b01] = tDiff + zInv   // plain -> inverted
		edge[i][0b10] = tDiff + zPlain // inverted -> plain
		edge[i][0b11] = tSame + zInv   // inverted -> inverted
	}

	// The all-plain pattern seeds the walk; Gray code i^(i>>1) then visits
	// every remaining pattern by flipping bit TrailingZeros(i) at step i.
	cur := first[0]
	for i := 1; i < n; i++ {
		cur += edge[i][0b00]
	}
	best, bestMask := cur, uint32(0)
	var mask uint32
	for i := uint32(1); i < 1<<n; i++ {
		t := bits.TrailingZeros32(i)
		it := mask >> t & 1
		if t == 0 {
			cur += first[1-it] - first[it]
		} else {
			pb := mask >> (t - 1) & 1
			cur += edge[t][pb<<1|(1-it)] - edge[t][pb<<1|it]
		}
		if t+1 < n {
			nb := mask >> (t + 1) & 1
			cur += edge[t+1][(1-it)<<1|nb] - edge[t+1][it<<1|nb]
		}
		mask ^= 1 << t
		if cur < best || (cur == best && mask < bestMask) {
			best, bestMask = cur, mask
		}
	}
	return bus.InvMask(bestMask)
}
