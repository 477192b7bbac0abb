package trace

import (
	"fmt"
	"io"

	"dbiopt/internal/bus"
)

// Frame sources adapt the package's burst producers to the multi-lane
// streaming shape consumed by dbi.Pipeline: a sequence of bus.Frames ended
// by io.EOF. They deliberately satisfy the interface structurally (a
// NextFrame method) so this package stays free of a dbi dependency.

// FrameGen draws frames from a Source: each frame is lanes fresh bursts, in
// lane order, so a serial replay of the generator produces byte-identical
// traffic. The generator is bounded to a frame budget because pipeline runs
// consume their source to EOF and every Source is endless.
type FrameGen struct {
	src    Source
	lanes  int
	beats  int
	remain int
}

// NewFrameGen returns a source of exactly frames frames of lanes x beats
// bursts drawn from src.
func NewFrameGen(src Source, lanes, beats, frames int) (*FrameGen, error) {
	if lanes <= 0 || beats <= 0 || frames < 0 {
		return nil, fmt.Errorf("trace: bad frame geometry: %d lanes x %d beats x %d frames", lanes, beats, frames)
	}
	return &FrameGen{src: src, lanes: lanes, beats: beats, remain: frames}, nil
}

// NextFrame returns the next frame, or io.EOF once the budget is spent.
func (g *FrameGen) NextFrame() (bus.Frame, error) {
	if g.remain <= 0 {
		return nil, io.EOF
	}
	g.remain--
	f := make(bus.Frame, g.lanes)
	for i := range f {
		f[i] = g.src.Next(g.beats)
	}
	return f, nil
}

// FrameReader groups every lanes consecutive bursts of a trace into one
// frame — burst i of the trace becomes lane i%lanes of frame i/lanes — so a
// single-lane trace file replays onto a multi-lane bus without ever holding
// more than one frame in memory. Each frame is decoded by one read of
// lanes x beats payload bytes into a fresh slab, and its bursts are
// capacity-capped subslices of that slab (the bus.NewFrame layout): two
// allocations per frame, slab and header, whatever the lane count. A
// returned frame is never reused, so callers may retain it. If the trace
// ends mid-frame the missing lanes carry zero-beat bursts and the short
// frame is still delivered: no payload is silently dropped, and a
// zero-beat burst drives no wires, so the padding contributes exactly
// nothing to the activity counts.
type FrameReader struct {
	r     *Reader
	lanes int
	done  bool
}

// NewFrameReader returns a frame source replaying r across the given number
// of lanes.
func NewFrameReader(r *Reader, lanes int) (*FrameReader, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("trace: lane count must be positive, got %d", lanes)
	}
	return &FrameReader{r: r, lanes: lanes}, nil
}

// NextFrame returns the next frame, or io.EOF after the trace's last burst.
func (fr *FrameReader) NextFrame() (bus.Frame, error) {
	if fr.done {
		return nil, io.EOF
	}
	beats := fr.r.beats
	slab := make([]byte, fr.lanes*beats)
	n, err := fr.r.readBursts(slab)
	if err != nil {
		if err == io.EOF {
			fr.done = true
		}
		return nil, err
	}
	f := make(bus.Frame, fr.lanes)
	for l := range f {
		if l < n {
			f[l] = bus.Burst(slab[l*beats : (l+1)*beats : (l+1)*beats])
		} else {
			// Pad a short final frame with zero-beat bursts: cost-free,
			// unlike phantom payload.
			f[l] = bus.Burst{}
		}
	}
	fr.done = n < fr.lanes
	return f, nil
}
