package dbi

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/racetag"
)

// thirdParty is the kernel surface's third-party probe: an EncodeInto-only
// scheme registered from the test binary exactly as an external package
// would register one. It reports Stateful() true to opt out of the
// registry-wide stateless fast-path sweeps (it deliberately has no native
// kernel), but it is pure — any two instances agree — which is
// what lets the kernel fuzz compare a compiled instance against a freshly
// constructed oracle instance.
type thirdParty struct{}

// Name implements Encoder.
func (thirdParty) Name() string { return "TEST-THIRD-PARTY-KERNEL" }

// Stateful opts the scheme out of the stateless contract sweeps.
func (thirdParty) Stateful() bool { return true }

// Encode implements Encoder.
func (tp thirdParty) Encode(prev bus.LineState, b bus.Burst) []bool {
	return tp.EncodeInto(nil, prev, b)
}

// EncodeInto inverts beat t when bit t%8 of the payload byte is set — an
// arbitrary deterministic rule with no mask fast path.
func (thirdParty) EncodeInto(dst []bool, prev bus.LineState, b bus.Burst) []bool {
	for t, v := range b {
		dst = append(dst, v>>(t%8)&1 == 1)
	}
	return dst
}

func init() {
	Register("TEST-THIRD-PARTY-KERNEL", func(Weights) (Encoder, error) { return thirdParty{}, nil })
}

// FuzzKernelEquivalence is the pinning contract of the compiled surface:
// for every registered scheme — the nine built-ins plus the third-party
// probe — and arbitrary payloads, prior states, burst lengths (narrow and
// wide) and weight regimes, every kernel entry point (EncodeMask,
// EncodeMaskWords, Advance, the Stream transmit path, and EncodeBatch over
// a multi-lane batch whose lanes start from distinct prior states) must
// agree bit for bit with the scheme's own EncodeInto oracle.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{0x8E, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4}, byte(0xFF), true, uint8(1), uint8(1), uint16(8))
	f.Add([]byte{}, byte(0), false, uint8(3), uint8(5), uint16(0))
	f.Add([]byte{0x00, 0xFF, 0x00, 0xFF}, byte(0xAA), false, uint8(0), uint8(2), uint16(64))
	f.Add([]byte{0x55, 0xAA, 0x55}, byte(0x0F), true, uint8(7), uint8(0), uint16(130))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, byte(0x3C), true, uint8(2), uint8(4), uint16(65))
	f.Add([]byte{0x00, 0xFF, 0x55, 0xAA, 0x0F}, byte(0x55), false, uint8(1), uint8(0), uint16(8))
	f.Fuzz(func(t *testing.T, payload []byte, prevData byte, prevDBI bool, qa, qb uint8, rawN uint16) {
		n := int(rawN) % 200
		if len(payload) == 0 {
			payload = []byte{0x5A}
		}
		b := make(bus.Burst, n)
		for i := range b {
			b[i] = payload[i%len(payload)]
		}
		prev := bus.LineState{Data: prevData, DBI: prevDBI}
		// The same three weight regimes as FuzzMaskEquivalence: exact
		// integers, dyadic rationals, and a non-representable float pair.
		weightCases := []Weights{
			{Alpha: float64(qa % 8), Beta: float64(qb%8) + 1},
			{Alpha: float64(qa%8) + 0.5, Beta: float64(qb%8) + 0.25},
			{Alpha: float64(qa%8) + 0.3, Beta: float64(qb%8) + 0.7},
		}
		// The batch lanes: lane l carries the tile rotated by l beats and
		// XORed with a lane constant, from its own prior state, so lanes
		// neither share payloads nor start alike.
		const batchLanes = 5
		laneBursts := make([]bus.Burst, batchLanes)
		lanePrev := make([]bus.LineState, batchLanes)
		for l := range laneBursts {
			laneBursts[l] = make(bus.Burst, n)
			for i := range laneBursts[l] {
				laneBursts[l][i] = payload[(i+l)%len(payload)] ^ byte(l*0x3D)
			}
			lanePrev[l] = bus.LineState{Data: prevData ^ byte(l*0x5B), DBI: prevDBI != (l%2 == 1)}
		}
		var lb LaneBatch
		var wm bus.WideMask
		for _, w := range weightCases {
			for _, name := range Names() {
				kern, err := Compile(name, w, Geometry{})
				if err != nil {
					continue // weights this scheme refuses (validated elsewhere)
				}
				oracle, err := Lookup(name, w)
				if err != nil {
					t.Fatalf("Lookup(%q) failed after a successful Compile: %v", name, err)
				}
				if _, isEx := oracle.(Exhaustive); isEx && n > 12 {
					continue // brute force: keep the fuzz round fast
				}
				inv := oracle.Encode(prev, b)
				wire := bus.Apply(b, inv)
				wantC, wantS := wire.Cost(prev), wire.FinalState(prev)

				if m, ok := kern.EncodeMask(prev, b); ok {
					want, packOK := bus.MaskFromBools(inv)
					if !packOK {
						t.Fatalf("%s: reference pattern unpackable (%d beats)", name, len(inv))
					}
					if m != want {
						t.Fatalf("%s w=%+v n=%d: kernel mask %b != oracle %b", name, w, n, m, want)
					}
				}
				wm.Reset(n)
				if kern.EncodeMaskWords(prev, b, wm.Words()) {
					for i := range inv {
						if wm.Bit(i) != inv[i] {
							t.Fatalf("%s w=%+v n=%d: kernel wide beat %d = %v, oracle %v",
								name, w, n, i, wm.Bit(i), inv[i])
						}
					}
				}
				gotC, gotS := kern.Advance(prev, b)
				if gotC != wantC || gotS != wantS {
					t.Fatalf("%s w=%+v n=%d: Advance = (%+v, %+v), oracle (%+v, %+v)",
						name, w, n, gotC, gotS, wantC, wantS)
				}
				st := kern.NewStreamFrom(prev)
				tw := st.Transmit(b)
				if !tw.Decode().Equal(b) {
					t.Fatalf("%s w=%+v n=%d: stream wire does not decode to the payload", name, w, n)
				}
				if st.TotalCost() != wantC {
					t.Fatalf("%s w=%+v n=%d: stream cost %+v != oracle %+v", name, w, n, st.TotalCost(), wantC)
				}

				lb.Reset(batchLanes, n)
				for l := range laneBursts {
					lb.SetPrev(l, lanePrev[l])
					lb.SetLane(l, laneBursts[l])
				}
				kern.EncodeBatch(&lb)
				for l, lbu := range laneBursts {
					linv := oracle.Encode(lanePrev[l], lbu)
					lwire := bus.Apply(lbu, linv)
					words := lb.MaskWords(l)
					for i := range linv {
						if got := words[i>>6]>>(i&63)&1 == 1; got != linv[i] {
							t.Fatalf("%s w=%+v n=%d: batch lane %d beat %d = %v, oracle %v",
								name, w, n, l, i, got, linv[i])
						}
					}
					if c := lwire.Cost(lanePrev[l]); lb.Cost(l) != c {
						t.Fatalf("%s w=%+v n=%d: batch lane %d cost %+v != oracle %+v", name, w, n, l, lb.Cost(l), c)
					}
					if s := lwire.FinalState(lanePrev[l]); lb.Next(l) != s {
						t.Fatalf("%s w=%+v n=%d: batch lane %d next %+v != oracle %+v", name, w, n, l, lb.Next(l), s)
					}
				}
			}
		}
	})
}

// TestKernelFusedMatchesMaskPath pins the fused BL8 unit-coefficient core,
// which the Stream's wire kernel, the packed mask path and the frame-level
// batch kernel all share, against an oracle that is not itself: the loop
// trellis trellisMaskInt(prev, b, 1, 1) for the mask, and bus.MaskCost /
// bus.MaskFinalState for the cost and next state. It sweeps all 512 prior
// line states over seeded random bursts and tie-heavy bursts (constant
// 0x00/0xFF/0x55/0xAA, alternating 0x55/0xAA and 0x00/0xFF, and random
// draws from those balanced bytes), then checks each compiled entry point
// of the OPT-FIXED kernel on the same grid.
func TestKernelFusedMatchesMaskPath(t *testing.T) {
	rep := func(v ...byte) bus.Burst {
		b := make(bus.Burst, bus.BurstLength)
		for i := range b {
			b[i] = v[i%len(v)]
		}
		return b
	}
	bursts := []bus.Burst{
		rep(0x00), rep(0xFF), rep(0x55), rep(0xAA), rep(0x55, 0xAA), rep(0xAA, 0x55),
		rep(0x00, 0xFF), rep(0xFF, 0x00), rep(0x0F, 0xF0), rep(0x00, 0x00, 0xFF, 0xFF),
	}
	rng := rand.New(rand.NewSource(65))
	ties := []byte{0x00, 0xFF, 0x55, 0xAA, 0x0F, 0xF0, 0x33, 0xCC}
	for i := 0; i < 64; i++ {
		b := make(bus.Burst, bus.BurstLength)
		for j := range b {
			b[j] = ties[rng.Intn(len(ties))]
		}
		bursts = append(bursts, b, randomBurst(rng, bus.BurstLength))
	}

	kern, err := Compile("OPT-FIXED", FixedWeights, Geometry{Beats: bus.BurstLength})
	if err != nil {
		t.Fatal(err)
	}
	var lb LaneBatch
	var wire bus.Wire
	for s := 0; s < 512; s++ {
		prev := bus.LineState{Data: byte(s), DBI: s >= 256}
		lb.Reset(len(bursts), bus.BurstLength)
		for l, b := range bursts {
			lb.SetPrev(l, prev)
			lb.SetLane(l, b)
		}
		kern.EncodeBatch(&lb)
		for l, b := range bursts {
			want := trellisMaskInt(prev, b, 1, 1)
			wantC, wantS := bus.MaskCost(prev, b, want), bus.MaskFinalState(prev, b, want)

			w8 := binary.LittleEndian.Uint64(b)
			g := optUnit8(w8, prev)
			if bus.InvMask(g) != want {
				t.Fatalf("prev %+v burst %x: core mask %08b, loop trellis %08b", prev, []byte(b), g, want)
			}
			wi, c, next := settleUnit8(w8, g, prev)
			if c != wantC || next != wantS {
				t.Fatalf("prev %+v burst %x: core settle (%+v, %+v), mask path (%+v, %+v)",
					prev, []byte(b), c, next, wantC, wantS)
			}
			if dq := bus.ApplyMask(b, want).Data; binary.LittleEndian.Uint64(dq) != wi {
				t.Fatalf("prev %+v burst %x: core wire word %016x, mask path %x", prev, []byte(b), wi, []byte(dq))
			}

			if m, ok := kern.EncodeMask(prev, b); !ok || m != want {
				t.Fatalf("prev %+v burst %x: EncodeMask (%08b, %v), loop trellis %08b", prev, []byte(b), m, ok, want)
			}
			if m, _ := lb.Mask(l); m != want || lb.Cost(l) != wantC || lb.Next(l) != wantS {
				t.Fatalf("prev %+v burst %x: batch (%08b, %+v, %+v), mask path (%08b, %+v, %+v)",
					prev, []byte(b), m, lb.Cost(l), lb.Next(l), want, wantC, wantS)
			}
			c, next = kern.wire(kern, &wire, prev, b)
			wm, _ := wire.InvMask()
			if c != wantC || next != wantS || wm != want || binary.LittleEndian.Uint64(wire.Data) != wi {
				t.Fatalf("prev %+v burst %x: wire kernel (%+v, %+v) %v, mask path (%+v, %+v)",
					prev, []byte(b), c, next, wire, wantC, wantS)
			}
		}
	}
}

// TestThirdPartyKernelParity pins the generic fallback kernel: a scheme the
// compiler has never heard of still gets a total Kernel whose cost, state
// and wire outcomes are bit-identical to its EncodeInto oracle, and
// stateful kernels are compiled fresh rather than cached.
func TestThirdPartyKernelParity(t *testing.T) {
	kern, err := LookupKernel("TEST-THIRD-PARTY-KERNEL", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if kern.Stateless() {
		t.Error("Stateful() scheme compiled to a stateless kernel")
	}
	if _, ok := kern.EncodeMask(bus.InitialLineState, make(bus.Burst, 8)); ok {
		t.Error("maskless scheme's kernel must decline the mask path")
	}
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{0, 1, 8, 64, 65, 200} {
		b := randomBurst(rng, n)
		prev := bus.LineState{Data: byte(rng.Intn(256)), DBI: rng.Intn(2) == 1}
		inv := thirdParty{}.Encode(prev, b)
		wire := bus.Apply(b, inv)
		wantC, wantS := wire.Cost(prev), wire.FinalState(prev)
		gotC, gotS := kern.Advance(prev, b)
		if gotC != wantC || gotS != wantS {
			t.Fatalf("n=%d: Advance = (%+v, %+v), oracle (%+v, %+v)", n, gotC, gotS, wantC, wantS)
		}
		st := kern.NewStreamFrom(prev)
		tw := st.Transmit(b)
		if !tw.Decode().Equal(b) {
			t.Fatalf("n=%d: stream wire does not decode to the payload", n)
		}
		if st.TotalCost() != wantC {
			t.Fatalf("n=%d: stream cost %+v != oracle %+v", n, st.TotalCost(), wantC)
		}
	}
	again, err := LookupKernel("TEST-THIRD-PARTY-KERNEL", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if again == kern {
		t.Error("stateful scheme's kernel must not be cached")
	}
}

// TestLookupKernelCaching pins the compile-once economics: one compiled
// kernel per stateless (scheme, weights, geometry) triple, shared by every
// consumer; distinct triples compile their own; unknown names fail with
// the registry's vocabulary error.
func TestLookupKernelCaching(t *testing.T) {
	k1, err := LookupKernel("OPT-FIXED", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LookupKernel("OPT-FIXED", FixedWeights, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same triple must bind the same compiled kernel")
	}
	if k1.Name() != "OPT-FIXED" || !k1.Stateless() {
		t.Errorf("kernel identity: name %q stateless %v", k1.Name(), k1.Stateless())
	}
	kg, err := LookupKernel("OPT-FIXED", FixedWeights, Geometry{Beats: 8, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if kg == k1 {
		t.Error("distinct geometry must compile its own kernel")
	}
	if kg.Geometry() != (Geometry{Beats: 8, Lanes: 4}) {
		t.Errorf("Geometry() = %+v", kg.Geometry())
	}
	ka, err := LookupKernel("OPT", Weights{Alpha: 1, Beta: 2}, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := LookupKernel("OPT", Weights{Alpha: 2, Beta: 1}, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("distinct weights must compile their own kernels")
	}
	if ka.Weights() != (Weights{Alpha: 1, Beta: 2}) {
		t.Errorf("Weights() = %+v", ka.Weights())
	}
	if _, err := LookupKernel("BOGUS", FixedWeights, Geometry{}); err == nil {
		t.Error("LookupKernel(BOGUS) should fail")
	}
}

// TestKernelCacheBounded: the kernel cache is keyed by weights a serving
// client chooses, so distinct lookups past the cap must not grow it, and
// the uncached kernels compiled past the cap must encode exactly like
// Compile's.
func TestKernelCacheBounded(t *testing.T) {
	var added []kernelKey
	t.Cleanup(func() {
		for _, key := range added {
			if _, ok := kernelCache.LoadAndDelete(key); ok {
				kernelCached.Add(-1)
			}
		}
	})
	weightsAt := func(i int) Weights { return Weights{Alpha: 1, Beta: 1 + float64(i)*0.001} }
	for i := 0; i < maxCachedKernels+100; i++ {
		added = append(added, kernelKey{name: "OPT", w: weightsAt(i)})
		if _, err := LookupKernel("OPT", weightsAt(i), Geometry{}); err != nil {
			t.Fatal(err)
		}
	}
	entries := 0
	kernelCache.Range(func(any, any) bool { entries++; return true })
	if entries > maxCachedKernels {
		t.Fatalf("kernel cache holds %d entries past its cap of %d", entries, maxCachedKernels)
	}

	w := weightsAt(maxCachedKernels + 50)
	k1, err := LookupKernel("OPT", w, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := LookupKernel("OPT", w, Geometry{})
	if k1 == k2 {
		t.Fatal("a lookup past the cap was cached")
	}
	ref, err := Compile("OPT", w, Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(404))
	for _, n := range []int{0, 1, 8, 64, 65, 200} {
		prev, b := randomWideBurst(rng, n)
		gc, gs := k1.Advance(prev, b)
		wc, ws := ref.Advance(prev, b)
		if gc != wc || gs != ws {
			t.Fatalf("n=%d: uncached kernel (%+v, %+v) != Compile (%+v, %+v)", n, gc, gs, wc, ws)
		}
		gm, gok := k1.EncodeMask(prev, b)
		wm, wok := ref.EncodeMask(prev, b)
		if gm != wm || gok != wok {
			t.Fatalf("n=%d: uncached mask (%b, %v) != Compile (%b, %v)", n, gm, gok, wm, wok)
		}
	}
}

// TestKernelZeroAlloc pins the other half of the compile-time bargain: all
// per-triple work happens in Compile, so the compiled entry points allocate
// nothing per burst at steady state — on the register-resident narrow path
// and on the pooled-scratch wide path alike.
func TestKernelZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("race instrumentation forces stack scratch to the heap")
	}
	rng := rand.New(rand.NewSource(64))
	narrow := make([]bus.Burst, 32)
	for i := range narrow {
		narrow[i] = randomBurst(rng, 8)
	}
	wide := make([]bus.Burst, 8)
	for i := range wide {
		wide[i] = randomBurst(rng, 128)
	}
	for name, enc := range statelessEncoders(t) {
		t.Run(name, func(t *testing.T) {
			k := CompileEncoder(enc, Geometry{})
			prev := bus.InitialLineState
			for _, b := range narrow { // warm the pooled scratch
				_, prev = k.Advance(prev, b)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				_, prev = k.Advance(prev, narrow[i%len(narrow)])
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state narrow Advance allocates %.2f times per burst, want 0", allocs)
			}
			if name == "EXHAUSTIVE" {
				return // declines every wide burst; its oracle is bounded
			}
			for _, b := range wide {
				_, prev = k.Advance(prev, b)
			}
			i = 0
			allocs = testing.AllocsPerRun(200, func() {
				_, prev = k.Advance(prev, wide[i%len(wide)])
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state wide Advance allocates %.2f times per burst, want 0", allocs)
			}
		})
	}
}
