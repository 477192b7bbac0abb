package trace

import (
	"bytes"
	"io"
	"testing"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/racetag"
)

// TestFrameGenBudgetAndOrder: the generator yields exactly the requested
// frame count, and its lane-order draws replay the underlying source
// byte-identically.
func TestFrameGenBudgetAndOrder(t *testing.T) {
	const lanes, beats, frames = 3, 4, 5
	g, err := NewFrameGen(NewUniform(9), lanes, beats, frames)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewUniform(9)
	for i := 0; i < frames; i++ {
		f, err := g.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Lanes() != lanes || f.Beats() != beats {
			t.Fatalf("frame %d: geometry %dx%d", i, f.Lanes(), f.Beats())
		}
		for l := 0; l < lanes; l++ {
			if want := ref.Next(beats); !f[l].Equal(want) {
				t.Fatalf("frame %d lane %d: %v != %v", i, l, f[l], want)
			}
		}
	}
	if _, err := g.NextFrame(); err != io.EOF {
		t.Fatalf("past budget: err = %v, want io.EOF", err)
	}
}

// TestFrameGenRejectsBadGeometry: invalid shapes error instead of
// producing garbage.
func TestFrameGenRejectsBadGeometry(t *testing.T) {
	for _, tc := range [][3]int{{0, 8, 1}, {2, 0, 1}, {2, 8, -1}} {
		if _, err := NewFrameGen(NewUniform(1), tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("geometry %v accepted", tc)
		}
	}
}

// roundTrip writes the bursts to an in-memory trace and reopens it.
func roundTrip(t *testing.T, bursts []bus.Burst, beats int) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, beats)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bursts {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFrameReaderGroupsLanes: burst i lands on lane i%lanes of frame
// i/lanes, and a short trailing frame is padded with cost-free zero-beat
// bursts rather than dropped.
func TestFrameReaderGroupsLanes(t *testing.T) {
	const beats, lanes = 4, 3
	src := NewUniform(4)
	bursts := make([]bus.Burst, 7) // 2 full frames + a short one
	for i := range bursts {
		bursts[i] = src.Next(beats)
	}
	fr, err := NewFrameReader(roundTrip(t, bursts, beats), lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f, err := fr.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for l := 0; l < lanes; l++ {
			idx := i*lanes + l
			want := bus.Burst{} // cost-free zero-beat padding
			if idx < len(bursts) {
				want = bursts[idx]
			}
			if !f[l].Equal(want) {
				t.Fatalf("frame %d lane %d: %v != %v", i, l, f[l], want)
			}
		}
	}
	if _, err := fr.NextFrame(); err != io.EOF {
		t.Fatalf("past end: err = %v, want io.EOF", err)
	}
}

// TestFrameReaderExactMultiple: no phantom padded frame when the trace
// length divides evenly.
func TestFrameReaderExactMultiple(t *testing.T) {
	const beats, lanes = 2, 2
	src := NewUniform(5)
	bursts := make([]bus.Burst, 4)
	for i := range bursts {
		bursts[i] = src.Next(beats)
	}
	fr, err := NewFrameReader(roundTrip(t, bursts, beats), lanes)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := fr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d frames, want 2", n)
	}
}

// TestFrameReaderAllocs pins the decode cost per frame: one payload slab
// and one frame header, whatever the lane count — not one burst each.
func TestFrameReaderAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats, runs = 32, bus.BurstLength, 200
	src := NewUniform(8)
	bursts := make([]bus.Burst, (runs+1)*lanes) // AllocsPerRun adds a warm-up call
	for i := range bursts {
		bursts[i] = src.Next(beats)
	}
	fr, err := NewFrameReader(roundTrip(t, bursts, beats), lanes)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := fr.NextFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("NextFrame allocates %.1f times per %d-lane frame, want <= 2", allocs, lanes)
	}
}

// TestFrameReaderPaddingIsCostFree: replaying a trace whose length is not a
// multiple of the lane count must account exactly the real bursts — the
// padded lanes of the short final frame contribute nothing.
func TestFrameReaderPaddingIsCostFree(t *testing.T) {
	const beats, lanes = 8, 3
	src := NewUniform(6)
	bursts := make([]bus.Burst, 7) // last frame has 1 real burst, 2 padded
	for i := range bursts {
		bursts[i] = src.Next(beats)
	}
	// Reference: one stream per lane, fed only the bursts that exist. The
	// scheme comes from the registry, as production replay callers get it.
	enc, err := dbi.Lookup("OPT-FIXED", dbi.FixedWeights)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*dbi.Stream, lanes)
	for l := range ref {
		ref[l] = dbi.NewStream(enc)
	}
	var want bus.Cost
	for i, b := range bursts {
		ref[i%lanes].Transmit(b)
	}
	for _, s := range ref {
		want = want.Add(s.TotalCost())
	}
	fr, err := NewFrameReader(roundTrip(t, bursts, beats), lanes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbi.NewPipeline(enc, lanes, dbi.WithWorkers(2)).Run(fr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != want {
		t.Fatalf("padded replay %+v != real bursts %+v (padding added cost)", res.Total, want)
	}
}

// TestFrameReaderRejectsBadLanes: non-positive lane counts error.
func TestFrameReaderRejectsBadLanes(t *testing.T) {
	r := roundTrip(t, []bus.Burst{{1, 2}}, 2)
	if _, err := NewFrameReader(r, 0); err == nil {
		t.Error("zero lanes accepted")
	}
}
