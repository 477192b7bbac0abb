package main

import (
	"bytes"

	"dbiopt/internal/bus"
	"dbiopt/internal/trace"
)

// phasePeriod is how many consecutive bursts the mixed source draws from
// one content class before moving to the next: long enough for an adaptive
// lane's 64-burst decision window to settle on each class.
const phasePeriod = 512

// mixedSource is the seeded mixed-content burst source every workload's
// payload comes from: text, pointers, image, sparse and uniform data in
// turn. stream separates independent sources drawn from one run seed.
func mixedSource(seed int64, stream int) trace.Source {
	s := seed*1_000_003 + int64(stream)*7919
	return trace.NewPhaseShift(phasePeriod,
		trace.NewText(s), trace.NewPointers(s+1), trace.NewImage(s+2),
		trace.NewSparse(s+3, 0.2), trace.NewUniform(s+4))
}

// traceBlob serialises bursts bursts of the given length from src as an
// in-memory DBIT trace, the format dbitrace and the batch protocol read.
func traceBlob(src trace.Source, beats, bursts int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(12 + beats*bursts)
	w, err := trace.NewWriter(&buf, beats)
	if err != nil {
		return nil, err
	}
	for i := 0; i < bursts; i++ {
		if err := w.Write(src.Next(beats)); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// framePool holds n frames of lanes x beats payload back to back in one
// flat buffer, so a large pool costs its payload bytes and nothing more.
type framePool struct {
	data         []byte
	lanes, beats int
	n            int
}

func newFramePool(src trace.Source, lanes, beats, n int) *framePool {
	p := &framePool{data: make([]byte, 0, n*lanes*beats), lanes: lanes, beats: beats, n: n}
	for i := 0; i < n*lanes; i++ {
		p.data = append(p.data, src.Next(beats)...)
	}
	return p
}

// frame points f's lanes at frame i%n of the pool, without copying.
func (p *framePool) frame(i int, f bus.Frame) {
	off := (i % p.n) * p.lanes * p.beats
	for l := range f {
		f[l] = p.data[off+l*p.beats : off+(l+1)*p.beats : off+(l+1)*p.beats]
	}
}
