// wide.go generalises the bit-parallel encode core past the single-word
// bus.InvMask bound: every native kernel's fast path re-expressed over
// word-packed bus.WideMask patterns, so 128- and 256-beat bursts (the
// HBM/GDDR6-class widths of DESIGN.md §9) encode mask-native instead of
// falling back to the []bool slow path. The per-beat cost algebra is identical to mask.go; only
// the backpointer and output representations widen from one uint64 to a
// word slice, inline-backed up to bus.MaxInlineWideBeats.
package dbi

import (
	"encoding/binary"
	"sync"

	"dbiopt/internal/bus"
)

// acInv[x] is 1 iff the payload-domain AC recurrence flips on a Hamming
// distance of x's popcount: ones(x) >= 5. Tabulated over the XOR of
// consecutive payload bytes so the wide AC loop is one lookup and one XOR
// per beat, byte-valued for branch-free accumulation.
var acInv [256]byte

func init() {
	for v := 0; v < 256; v++ {
		if bus.Ones(byte(v)) >= 5 {
			acInv[v] = 1
		}
	}
}

// EncodeMaskWords computes the per-beat inversion pattern of b into the
// word-packed form of bus.WideMask (beat t = bit t&63 of words[t>>6]) at
// any length, bit-identical to the flags EncodeInto produces. The caller
// provides bus.WideWords(len(b)) zeroed words, as bus.WideMask.Reset
// establishes. RAW never inverts — the zeroed words already are the
// answer.
//
//dbi:hotpath
func (Raw) EncodeMaskWords(prev bus.LineState, b bus.Burst, words []uint64) bool {
	return true
}

// dcMaskBytes computes the DC rule for 8 beats at once: given the 8 payload
// bytes of an aligned group in one 64-bit word, it returns the 8 decision
// bits (bit k = invert byte k). Per-byte SWAR popcounts feed the >= 5 zeros
// threshold (ones <= 3, read off bit 3 of ones+4), and a multiply gathers
// the per-byte flags into adjacent bits; no step carries across bytes.
func dcMaskBytes(w8 uint64) uint64 {
	v := w8 - w8>>1&0x5555555555555555
	v = v&0x3333333333333333 + v>>2&0x3333333333333333
	v = (v + v>>4) & 0x0f0f0f0f0f0f0f0f
	// Byte k now holds ones(b[k]); flag bytes become 1 where ones <= 3.
	flags := (v+0x0404040404040404)&0x0808080808080808>>3 ^ 0x0101010101010101
	return flags * 0x0102040810204080 >> 56
}

// dcMaskWords fills the word-packed DC pattern of b: 8 beats per iteration
// through dcMaskBytes, table lookups on the ragged tail.
//
//dbi:hotpath
func dcMaskWords(b bus.Burst, words []uint64) {
	t := 0
	for ; t+8 <= len(b); t += 8 {
		words[t>>6] |= dcMaskBytes(binary.LittleEndian.Uint64(b[t:])) << (t & 63)
	}
	for ; t < len(b); t++ {
		words[t>>6] |= uint64(dcInv[b[t]]) << (t & 63)
	}
}

// EncodeMaskWords is the word-packed DC pattern at any length (see
// Raw.EncodeMaskWords).
//
//dbi:hotpath
func (DC) EncodeMaskWords(prev bus.LineState, b bus.Burst, words []uint64) bool {
	dcMaskWords(b, words)
	return true
}

// acFlagBytes computes the raw AC threshold for 8 beats at once: given the
// 8 XOR-difference bytes of an aligned group in one 64-bit word, it returns
// the 8 raw flag bits (bit k = ones(byte k) >= 5, i.e. acInv of byte k).
// Same SWAR shape as dcMaskBytes with the complementary threshold: bit 3 of
// ones+3 is set exactly when ones >= 5.
func acFlagBytes(d8 uint64) uint64 {
	v := d8 - d8>>1&0x5555555555555555
	v = v&0x3333333333333333 + v>>2&0x3333333333333333
	v = (v + v>>4) & 0x0f0f0f0f0f0f0f0f
	flags := (v + 0x0303030303030303) & 0x0808080808080808 >> 3
	return flags * 0x0102040810204080 >> 56
}

// acMaskWords runs the payload-domain AC recurrence from an explicit seed,
// producing decisions for b[from:] into words — acMaskFrom without the
// single-word bound. The recurrence f[t] = acInv[b[t-1]^b[t]] ^ f[t-1] is a
// prefix XOR over raw threshold flags, so aligned 8-beat groups evaluate
// bit-parallel: one SWAR threshold pass over the XOR differences, then a
// log-shift prefix XOR folds the chain, with only one carry bit (the
// group's last decision) serializing group to group. Unaligned head and
// ragged tail fall back to the two-table scalar step.
//
//dbi:hotpath
func acMaskWords(pp byte, pinv byte, b bus.Burst, from int, words []uint64) {
	t := from
	for ; t < len(b) && t&7 != 0; t++ {
		v := b[t]
		f := acInv[pp^v] ^ pinv
		words[t>>6] |= uint64(f) << (t & 63)
		pp, pinv = v, f
	}
	for ; t+8 <= len(b); t += 8 {
		w8 := binary.LittleEndian.Uint64(b[t:])
		g := acFlagBytes(w8 ^ (w8<<8 | uint64(pp)))
		g ^= g << 1
		g ^= g << 2
		g ^= g << 4
		f := (g ^ uint64(pinv)*0xff) & 0xff
		words[t>>6] |= f << (t & 63)
		pp, pinv = byte(w8>>56), byte(f>>7)
	}
	for ; t < len(b); t++ {
		v := b[t]
		f := acInv[pp^v] ^ pinv
		words[t>>6] |= uint64(f) << (t & 63)
		pp, pinv = v, f
	}
}

// acSeedByte is acSeed with the inversion flag as a 0/1 byte, the form the
// wide and batch AC loops accumulate with.
func acSeedByte(prev bus.LineState) (pp byte, pinv byte) {
	if prev.DBI {
		return prev.Data, 0
	}
	return ^prev.Data, 1
}

// EncodeMaskWords is the word-packed JEDEC AC pattern at any length (see
// Raw.EncodeMaskWords).
//
//dbi:hotpath
func (AC) EncodeMaskWords(prev bus.LineState, b bus.Burst, words []uint64) bool {
	pp, pinv := acSeedByte(prev)
	acMaskWords(pp, pinv, b, 0, words)
	return true
}

// EncodeMaskWords is the word-packed ACDC pattern at any length (see
// Raw.EncodeMaskWords): the DC table decides the first beat, the AC
// recurrence the rest.
//
//dbi:hotpath
func (ACDC) EncodeMaskWords(prev bus.LineState, b bus.Burst, words []uint64) bool {
	if len(b) == 0 {
		return true
	}
	f := dcInv[b[0]]
	words[0] |= uint64(f)
	acMaskWords(b[0], f, b, 1, words)
	return true
}

// greedyMaskWords is the weighted greedy heuristic in exact integer
// arithmetic at any length: each beat inverts iff the weighted cost of
// sending it inverted is strictly lower, the comparison Greedy.EncodeInto
// makes in float. The compiled kernel runs it only for weights with an
// exact integer scale, where the two agree bit for bit.
//
//dbi:hotpath
func greedyMaskWords(prev bus.LineState, b bus.Burst, ia, ib int64, words []uint64) {
	pp, pinv := acSeed(prev)
	for t, v := range b {
		y := int64(bus.Ones(pp ^ v))
		pv := int64(bus.Ones(v))
		x, d := y, int64(1) // wire-domain distance and previous DBI level
		if pinv {
			x, d = 8-y, 0
		}
		plain := ia*(x+1-d) + ib*(8-pv)
		flipped := ia*(8-x+d) + ib*(pv+1)
		inv := flipped < plain
		if inv {
			words[t>>6] |= 1 << (t & 63)
		}
		pp, pinv = v, inv
	}
}

// maxInlineWideWords is the stack-resident backpointer capacity of the wide
// trellises, matching bus.MaxInlineWideBeats so every burst the inline
// WideMask covers also searches allocation-free.
const maxInlineWideWords = bus.MaxInlineWideBeats / 64

// wideTrellisState is the pooled backpointer scratch of the wide trellises
// for bursts past the inline bound, the word-packed sibling of encoderState.
type wideTrellisState struct {
	fromPlain, fromInv []uint64
}

var wideStatePool = sync.Pool{New: func() any { return new(wideTrellisState) }}

// acquireWideBackpointers hands out two zeroed w-word backpointer slices: a
// view of the caller's stack arrays within the inline bound, else a pooled
// state's buffers. The returned state (nil for the stack case) must go back
// through releaseWideBackpointers after the backward pass.
func acquireWideBackpointers(fpStack, fiStack *[maxInlineWideWords]uint64, w int) (fp, fi []uint64, st *wideTrellisState) {
	if w <= maxInlineWideWords {
		return fpStack[:w], fiStack[:w], nil
	}
	st = wideStatePool.Get().(*wideTrellisState)
	if cap(st.fromPlain) < w {
		st.fromPlain = make([]uint64, w)
		st.fromInv = make([]uint64, w)
	}
	fp, fi = st.fromPlain[:w], st.fromInv[:w]
	clear(fp) // pooled words carry stale decisions; the forward pass ORs into them
	clear(fi)
	return fp, fi, st
}

// releaseWideBackpointers recycles a pooled state; a nil state (stack
// scratch) is a no-op.
func releaseWideBackpointers(st *wideTrellisState) {
	if st != nil {
		wideStatePool.Put(st)
	}
}

// backtrackWideMask walks the word-packed trellis decisions backwards from
// the cheaper final node into words — backtrackMask across word boundaries,
// with the same branch-free backpointer select per beat.
//
//dbi:hotpath
func backtrackWideMask(words, fp, fi []uint64, invCheaper bool, n int) {
	var s uint64
	if invCheaper {
		s = 1
	}
	for i := n - 1; i >= 0; i-- {
		w, bit := i>>6, uint(i&63)
		words[w] |= s << bit
		sel := -s // 0 or all-ones: select fromInv when the beat is inverted
		s = (fi[w]&sel | fp[w]&^sel) >> bit & 1
	}
}

// trellisWideInt is trellisMaskInt without the single-word bound: the same
// integer-cost Viterbi forward pass, with backpointers packed one bit per
// beat into word slices that stay on the stack up to the inline bound.
//
//dbi:hotpath
func trellisWideInt(prev bus.LineState, b bus.Burst, ia, ib int64, words []uint64) {
	n := len(b)
	var fpStack, fiStack [maxInlineWideWords]uint64
	fp, fi, st := acquireWideBackpointers(&fpStack, &fiStack, bus.WideWords(n))

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

		nextPlain, fpb := costPlain+tSame+zPlain, uint64(0)
		if c := costInv + tDiff + zPlain; c < nextPlain {
			nextPlain, fpb = c, 1
		}
		nextInv, fib := costPlain+tDiff+zInv, uint64(0)
		if c := costInv + tSame + zInv; c < nextInv {
			nextInv, fib = c, 1
		}
		w, bit := i>>6, uint(i&63)
		fp[w] |= fpb << bit
		fi[w] |= fib << bit
		costPlain, costInv = nextPlain, nextInv
	}
	backtrackWideMask(words, fp, fi, costInv < costPlain, n)
	releaseWideBackpointers(st)
}

// trellisWideFloat is the same search in float64 arithmetic, for weights
// with no exact integer scale. Costs are formed exactly as encodeIntoTrellis
// forms them (BeatCost through Weights.Cost, accumulated in beat order), so
// its decisions — including how float rounding breaks near-ties — are
// bit-identical to the []bool oracle at any length.
//
//dbi:hotpath
func trellisWideFloat(prev bus.LineState, b bus.Burst, wt Weights, words []uint64) {
	n := len(b)
	var fpStack, fiStack [maxInlineWideWords]uint64
	fp, fi, st := acquireWideBackpointers(&fpStack, &fiStack, bus.WideWords(n))

	costPlain := wt.Cost(bus.BeatCost(prev, b[0], false))
	costInv := wt.Cost(bus.BeatCost(prev, b[0], true))
	for i := 1; i < n; i++ {
		v := b[i]
		plainState := bus.Advance(prev, b[i-1], false)
		invState := bus.Advance(prev, b[i-1], true)

		ePlainPlain := wt.Cost(bus.BeatCost(plainState, v, false))
		eInvPlain := wt.Cost(bus.BeatCost(invState, v, false))
		ePlainInv := wt.Cost(bus.BeatCost(plainState, v, true))
		eInvInv := wt.Cost(bus.BeatCost(invState, v, true))

		w, bit := i>>6, uint(i&63)
		nextPlain := costPlain + ePlainPlain
		if c := costInv + eInvPlain; c < nextPlain {
			nextPlain = c
			fp[w] |= 1 << bit
		}
		nextInv := costPlain + ePlainInv
		if c := costInv + eInvInv; c < nextInv {
			nextInv = c
			fi[w] |= 1 << bit
		}
		costPlain, costInv = nextPlain, nextInv
	}
	backtrackWideMask(words, fp, fi, costInv < costPlain, n)
	releaseWideBackpointers(st)
}

// wideIntExact reports whether the integer trellis is provably bit-identical
// to the float oracle for an n-beat burst: every partial path cost is a
// dyadic rational whose scaled integer value stays below 2^53, so the float
// accumulation encodeIntoTrellis performs is exact and both searches break
// every near-tie identically. Bounded by the worst per-beat edge weight,
// 9*(ia+ib), over n beats plus the entry edge.
func wideIntExact(n int, ia, ib int64) bool {
	return 9*(ia+ib)*int64(n+1) < 1<<53
}
