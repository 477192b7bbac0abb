package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/racetag"
	"dbiopt/internal/trace"
)

// newLoopConn builds a connection with one open session the way newConn
// does, but wired to an in-memory reader/writer so the encode path can be
// exercised without a network (and therefore measured by AllocsPerRun
// deterministically). mux selects the multiplexed framing.
func newLoopConn(t testing.TB, srv *Server, cfg SessionConfig, mux bool, w io.Writer) (*conn, *sessState) {
	t.Helper()
	c := &conn{
		srv:     srv,
		m:       srv.metrics.shard(),
		w:       bufio.NewWriter(w),
		version: protocolVersion,
		mux:     mux,
		def:     SessionConfig{Alpha: srv.cfg.Alpha, Beta: srv.cfg.Beta},
	}
	enc, err := dbi.Lookup(cfg.Scheme, dbi.Weights{Alpha: cfg.Alpha, Beta: cfg.Beta})
	if err != nil {
		t.Fatal(err)
	}
	var sid uint64
	if mux {
		sid = 7
	}
	st := &sessState{
		id:        sid,
		m:         c.m,
		cfg:       cfg,
		scheme:    cfg.Scheme,
		ls:        dbi.NewLaneSet(enc, cfg.Lanes),
		pipe:      dbi.NewPipeline(enc, cfg.Lanes),
		frameBuf:  make([]byte, cfg.Lanes*cfg.Beats),
		frame:     make(bus.Frame, cfg.Lanes),
		maskBuf:   make([]byte, cfg.Lanes*maskBytes(cfg.Beats)),
		rawStates: make([]bus.LineState, cfg.Lanes),
	}
	for l := range st.frame {
		st.frame[l] = bus.Burst(st.frameBuf[l*cfg.Beats : (l+1)*cfg.Beats])
	}
	for l := range st.rawStates {
		st.rawStates[l] = bus.InitialLineState
	}
	if mux {
		c.sessions = map[uint64]*sessState{sid: st}
	} else {
		c.single = st
	}
	return c, st
}

// frameMessage serialises one msgFrame for the given workload frame; sid
// adds the mux session-id prefix when nonzero.
func frameMessage(t testing.TB, f bus.Frame, lanes, beats int, sid uint64) []byte {
	t.Helper()
	var prefix []byte
	if sid != 0 {
		var sb [binary.MaxVarintLen64]byte
		prefix = sb[:binary.PutUvarint(sb[:], sid)]
	}
	var hdr [5]byte
	putHeader(&hdr, msgFrame, len(prefix)+lanes*beats)
	msg := append([]byte(nil), hdr[:]...)
	msg = append(msg, prefix...)
	for _, b := range f {
		msg = append(msg, b...)
	}
	return msg
}

// runFrameAllocs replays pre-serialised frame messages through the
// connection's dispatch path and returns AllocsPerRun over it.
func runFrameAllocs(t *testing.T, c *conn, msgs [][]byte) float64 {
	t.Helper()
	br := bytes.NewReader(nil)
	c.r = bufio.NewReader(br)
	i := 0
	return testing.AllocsPerRun(400, func() {
		br.Reset(msgs[i%len(msgs)])
		c.r.Reset(br)
		typ, n, err := readHeader(c.r, &c.hdr)
		if err != nil || typ != msgFrame {
			t.Fatalf("header: %q %v", typ, err)
		}
		if c.mux {
			err = c.muxFrame(n)
		} else {
			err = c.handleFrame(c.single, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestServeFrameZeroAlloc pins the serving property the acceptance criteria
// ask for: the steady-state single-frame path — payload read, raw baseline,
// LaneSet encode, mask packing, reply write, metrics — performs zero heap
// allocations per frame.
func TestServeFrameZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, false, io.Discard)

	fs := randomFrames(21, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, 0)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state frame path allocates %.1f times per frame, want 0", allocs)
	}
	if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatal("no work was actually done")
	}
}

// TestServeMuxFrameZeroAlloc pins the same property on the multiplexed
// path: session-id varint read, shard-map lookup, sid-prefixed reply — all
// on top of the encode — still zero heap allocations per frame.
func TestServeMuxFrameZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, true, io.Discard)

	fs := randomFrames(33, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, st.id)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("steady-state mux frame path allocates %.1f times per frame, want 0", allocs)
	}
	if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatal("no work was actually done")
	}
}

// deadlineConn counts SetRead/WriteDeadline calls; everything else is the
// embedded (nil, never touched) net.Conn.
type deadlineConn struct {
	net.Conn
	sets int
}

func (c *deadlineConn) SetReadDeadline(time.Time) error  { c.sets++; return nil }
func (c *deadlineConn) SetWriteDeadline(time.Time) error { c.sets++; return nil }

// TestServeFrameDeadlinesZeroAlloc pins that arming the idle/write
// deadlines adds no allocations to the steady-state frame path — with
// armEvery forced to zero, so every single reply re-arms both deadlines
// (the worst case; the amortised production path arms far less often).
func TestServeFrameDeadlinesZeroAlloc(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats = 8, bus.BurstLength
	srv, err := New(Config{IdleTimeout: time.Minute, WriteTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, true, io.Discard)
	nc := &deadlineConn{}
	c.nc = nc
	c.idle, c.writeTO = srv.cfg.IdleTimeout, srv.cfg.WriteTimeout

	fs := randomFrames(47, 16, lanes, beats)
	msgs := make([][]byte, len(fs))
	for i, f := range fs {
		msgs[i] = frameMessage(t, f, lanes, beats, st.id)
	}
	if allocs := runFrameAllocs(t, c, msgs); allocs != 0 {
		t.Errorf("deadline-armed frame path allocates %.1f times per frame, want 0", allocs)
	}
	if nc.sets == 0 {
		t.Fatal("deadlines were never armed")
	}
	if st.totals.Frames == 0 {
		t.Fatal("no work was actually done")
	}
}

// batchAllocs replays one pre-serialised batch message of the given frame
// count through handleBatch and returns AllocsPerRun over it.
func batchAllocs(t *testing.T, c *conn, frames, lanes, beats int) float64 {
	t.Helper()
	var blob bytes.Buffer
	w, err := trace.NewWriter(&blob, beats)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range randomFrames(int64(frames), frames, lanes, beats) {
		for _, b := range f {
			if err := w.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	putHeader(&hdr, msgBatch, blob.Len())
	msg := append(hdr[:], blob.Bytes()...)

	br := bytes.NewReader(nil)
	c.r = bufio.NewReader(br)
	return testing.AllocsPerRun(20, func() {
		br.Reset(msg)
		c.r.Reset(br)
		typ, n, err := readHeader(c.r, &c.hdr)
		if err != nil || typ != msgBatch {
			t.Fatalf("header: %q %v", typ, err)
		}
		if err := c.handleBatch(c.single, n); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServeBatchAllocSlope pins the batch path's per-frame allocation cost:
// decoding a DBIT blob costs at most two allocations per frame (payload
// slab and frame header), never one per burst. It checks the slope between
// two message sizes, not an absolute count, because each message also
// spawns the pipeline's workers.
func TestServeBatchAllocSlope(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const lanes, beats, small, large = 8, bus.BurstLength, 64, 256
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, st := newLoopConn(t, srv, SessionConfig{Scheme: "OPT-FIXED", Lanes: lanes, Beats: beats}, false, io.Discard)
	a, b := batchAllocs(t, c, small, lanes, beats), batchAllocs(t, c, large, lanes, beats)
	if slope := (b - a) / (large - small); slope > 2 {
		t.Errorf("batch path allocates %.2f times per extra %d-lane frame (%.0f allocs at %d frames, %.0f at %d), want <= 2",
			slope, lanes, a, small, b, large)
	}
	if st.totals.Frames == 0 || st.ls.TotalCost() == (Cost{}) {
		t.Fatal("no work was actually done")
	}
}
