package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"dbiopt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/server"
)

// Both serving workloads run a default-config server in this process and
// drive it over loopback TCP from client goroutines, each owning one
// multiplexed connection. The loop is closed: the public clients are
// synchronous, so a client sends its next request when the last reply is in.
// serve-frames runs two clients; serve-batch runs one, because two batch
// clients keep both cores busy, so their rate follows how much CPU a shared
// host leaves the process (a busy loop on one core of a 2-core host cut it
// by 45 %, against 28 % with one client).
const (
	frameClients = 2
	batchClients = 1
)

// serveSubRuns is how many windows a serving run measures, each on a
// freshly started server with fresh connections and sessions. One long
// window settles into one of several throughput levels (10 to 25 % apart on
// a 2-core host) and keeps it; the median over fresh servers does not.
const serveSubRuns = 10

const loopbackNote = "traffic crosses the host loopback interface (127.0.0.1); client and server share this process and its GOMAXPROCS cores"

// setupServer starts a default-config server on an ephemeral loopback port.
func setupServer() (*dbiopt.Server, string, error) {
	srv, err := dbiopt.Serve(dbiopt.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, "", err
	}
	return srv, srv.Addr().String(), nil
}

// replayCheck compares a session's server totals with a local LaneSet
// replay of exactly the frames it was sent: coded and raw activity, frame
// and beat counts, and adaptive switches.
func replayCheck(c *checker, what string, got, want dbiopt.SessionTotals) bool {
	ok := c.same(got.Coded, want.Coded) && c.same(got.Raw, want.Raw) &&
		c.sameInt(got.Frames, want.Frames) && c.sameInt(got.Beats, want.Beats) &&
		c.sameInt(got.Switches, want.Switches)
	if !ok {
		c.fail("%s: server totals %+v, local replay %+v", what, got, want)
	}
	return ok
}

// localReplay encodes frames on two local lane sets, the session's policy
// and RAW, accumulating totals the way a session does. The policy runs lane
// by lane (Stream.Transmit, not the batch kernel the server's frame path
// runs), unless batch is set: a serve-batch run sends too many bursts to
// replay that way in seconds, and its server runs the kernel on lane
// ranges inside the pipeline, not on whole frames.
type localReplay struct {
	ls, raw *dbi.LaneSet
	batch   bool
	frames  int
	beats   int
}

func newLocalReplay(cfg dbiopt.SessionConfig, batch bool) (*localReplay, error) {
	r := &localReplay{raw: dbiopt.NewLaneSet(dbiopt.Raw(), cfg.Lanes), batch: batch}
	var err error
	if cfg.Adapt {
		r.ls, err = dbiopt.NewAdaptiveLaneSet(dbiopt.AdaptiveConfig{}, cfg.Lanes)
	} else {
		scheme := cfg.Scheme
		if scheme == "" {
			scheme = server.DefaultScheme
		}
		var enc dbiopt.Encoder
		enc, err = dbiopt.NewEncoder(scheme, dbi.FixedWeights)
		r.ls = dbiopt.NewLaneSet(enc, cfg.Lanes)
	}
	return r, err
}

func (r *localReplay) transmit(f bus.Frame) {
	if r.batch {
		r.ls.TransmitBatch(f)
	} else {
		r.ls.Transmit(f)
	}
	r.raw.TransmitBatch(f)
	r.frames++
	r.beats += f.Lanes() * f.Beats()
}

func (r *localReplay) totals() dbiopt.SessionTotals {
	return dbiopt.SessionTotals{Frames: r.frames, Beats: r.beats, Coded: r.ls.TotalCost(), Raw: r.raw.TotalCost(), Switches: switchesOf(r.ls)}
}

// loopbackRTT measures a bare TCP echo over loopback with the given request
// and reply sizes: the floor any served request pays before the server does
// any work. It returns the median round trip of n exchanges in us.
func loopbackRTT(reqSize, respSize, n int) (float64, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer lis.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		req, resp := make([]byte, reqSize), make([]byte, respSize)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				done <- nil
				return
			}
			if _, err := conn.Write(resp); err != nil {
				done <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return 0, err
	}
	req, resp := make([]byte, reqSize), make([]byte, respSize)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := conn.Write(req); err != nil {
			conn.Close()
			return 0, err
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			conn.Close()
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	conn.Close()
	if err := <-done; err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// ---- closed-loop windows ----------------------------------------------

// loadPhase is one closed-loop measuring window shared by the clients.
type loadPhase struct {
	warm, stop time.Time
	traced     bool
}

// loop is the closed-loop state every client keeps: requests completed,
// round trips, the first error, and the spans of a traced window.
type loop struct {
	sent int
	err  error
	// rtts holds the round trips after warm-up, in us; rttSum covers every
	// request of the window.
	rtts   []float64
	rttSum time.Duration
	tr     *tracer
}

// drive sends requests with do until the phase stops or a request fails.
// do's argument numbers the request within the window.
func (l *loop) drive(ph loadPhase, span string, do func(i int) error) {
	for {
		t0 := time.Now()
		if t0.After(ph.stop) {
			return
		}
		if ph.traced {
			l.tr.begin(span, int64(l.sent))
		}
		err := do(l.sent)
		if ph.traced {
			l.tr.end()
		}
		d := time.Since(t0)
		if err != nil {
			l.err = err
			return
		}
		l.sent++
		l.rttSum += d
		if t0.After(ph.warm) {
			l.rtts = append(l.rtts, float64(d)/1e3)
		}
	}
}

// loadClient is one client of a serving workload.
type loadClient interface {
	loop() *loop
	run(ph loadPhase)
	// replay returns the totals each reply must carry, from a local
	// replay of what the client sent.
	replay() ([]dbiopt.SessionTotals, error)
	// verify collects the server's totals, checks them against want and
	// closes the connection.
	verify(rep *report, client int, want []dbiopt.SessionTotals) error
	close()
}

// serveWorkload is what the sub-run loop needs to know of a serving
// workload: how many clients it runs, and how to connect client c, whose
// requests continue at input offset base.
type serveWorkload struct {
	clients int
	dial    func(addr string, c, base int) (loadClient, error)
}

// window is what one sub-run measured after its warm-up.
type window struct {
	requests       int
	length         time.Duration
	p50, p99, tail float64 // round trip, us
}

// serveTotals accumulates the sub-runs of one kind (untraced or traced).
// Rates and latencies are medians over the windows, so a slow spell of the
// host that hits one window does not move them.
type serveTotals struct {
	setups  []float64 // s
	windows []window
	// sent and rttSum cover every request of every window, warm-up
	// included.
	sent    int
	rttSum  time.Duration
	peaks   []float64
	d       probeDelta
	encode  time.Duration // server EncodeTime delta
	bursts  int64         // server Bursts delta
	frames  int64         // server Frames delta
	tracers []*tracer
	base    []int // per-client input offset of the next window
}

// rate is the median throughput, in units per request per second.
func (t *serveTotals) rate(units int) float64 {
	return t.median(func(w window) float64 { return float64(w.requests*units) / w.length.Seconds() })
}

// median returns the median over the windows of one statistic.
func (t *serveTotals) median(stat func(window) float64) float64 {
	xs := make([]float64, len(t.windows))
	for i, w := range t.windows {
		xs[i] = stat(w)
	}
	return median(xs)
}

func (t *serveTotals) p50() float64 { return t.median(func(w window) float64 { return w.p50 }) }

// samples counts the round trips measured after warm-up.
func (t *serveTotals) samples() int {
	n := 0
	for _, w := range t.windows {
		n += w.requests
	}
	return n
}

// subRun starts a server, connects the clients (the timed set-up), drives
// one window of length d and checks every reply against a local replay.
func (w serveWorkload) subRun(rep *report, acc *serveTotals, d time.Duration, traced bool) error {
	t0 := time.Now()
	srv, addr, err := setupServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	clients := make([]loadClient, 0, w.clients)
	for c := 0; c < w.clients; c++ {
		cl, err := w.dial(addr, c, acc.base[c])
		if err != nil {
			return err
		}
		clients = append(clients, cl)
	}
	acc.setups = append(acc.setups, time.Since(t0).Seconds())
	if traced {
		for _, cl := range clients {
			cl.loop().tr = newTracer(t0, 10_000)
			acc.tracers = append(acc.tracers, cl.loop().tr)
		}
	}

	settle()
	s0 := srv.Metrics().Snapshot()
	p := takeProbe()
	start := time.Now()
	ph := loadPhase{warm: start.Add(d / 10), stop: start.Add(d), traced: traced}
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl loadClient) {
			defer wg.Done()
			cl.run(ph)
		}(cl)
	}
	wg.Wait()
	pd := p.since()
	s1 := srv.Metrics().Snapshot()

	var rtts []float64
	for _, cl := range clients {
		rtts = append(rtts, cl.loop().rtts...)
	}
	acc.windows = append(acc.windows, window{
		requests: len(rtts),
		length:   ph.stop.Sub(ph.warm),
		p50:      median(rtts),
		p99:      quantile(rtts, 0.99),
		tail:     tail(rtts),
	})
	acc.peaks = append(acc.peaks, pd.peakMB)
	acc.d = acc.d.add(pd)
	acc.encode += s1.EncodeTime - s0.EncodeTime
	acc.bursts += s1.Bursts - s0.Bursts
	acc.frames += s1.Frames - s0.Frames

	// Replays are pure functions of what each client sent, so they run
	// concurrently.
	want := make([][]dbiopt.SessionTotals, len(clients))
	errs := make([]error, len(clients))
	for c, cl := range clients {
		l := cl.loop()
		acc.sent += l.sent
		acc.rttSum += l.rttSum
		acc.base[c] += l.sent
		wg.Add(1)
		go func(c int, cl loadClient) {
			defer wg.Done()
			want[c], errs[c] = cl.replay()
		}(c, cl)
	}
	wg.Wait()
	for c, cl := range clients {
		l := cl.loop()
		rep.attempted += l.sent
		if l.err != nil {
			rep.failed++
			rep.check.fail("client %d: %v", c, l.err)
			cl.close()
			continue
		}
		if errs[c] != nil {
			return errs[c]
		}
		if err := cl.verify(rep, c, want[c]); err != nil {
			return err
		}
	}
	return nil
}

// measure runs serveSubRuns sub-runs sharing budget, then set-ups without
// a window until there are setups set-ups to take the median of.
func (w serveWorkload) measure(rep *report, budget time.Duration, traced bool, setups int) (*serveTotals, error) {
	acc := &serveTotals{base: make([]int, w.clients)}
	for i := 0; i < serveSubRuns; i++ {
		if err := w.subRun(rep, acc, budget/serveSubRuns, traced); err != nil {
			return nil, err
		}
	}
	for len(acc.setups) < setups {
		if err := w.setupOnly(acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// setupOnly times one set-up and tears it down again.
func (w serveWorkload) setupOnly(acc *serveTotals) error {
	t0 := time.Now()
	srv, addr, err := setupServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	for c := 0; c < w.clients; c++ {
		cl, err := w.dial(addr, c, 0)
		if err != nil {
			return err
		}
		defer cl.close()
	}
	acc.setups = append(acc.setups, time.Since(t0).Seconds())
	return nil
}

// report records the end-to-end metrics of an untraced measurement, plus
// the names the workload's users know them by.
func (t *serveTotals) report(rep *report, units int, rateName, op string) {
	rate, tl := t.rate(units), t.median(func(w window) float64 { return w.tail })
	rep.setE2E(time.Duration(median(t.setups)*1e9), median(t.peaks), rate, t.p50(), tl)
	rep.addNamed(rateName, rate, "1/s")
	rep.addNamed("latency_p50_us", t.p50(), "us")
	rep.addNamed("latency_p99_us", t.median(func(w window) float64 { return w.p99 }), "us")
	rep.note("latency samples: %d %s round trips after warm-up, over %d windows on fresh servers; rates and latencies are medians over the windows", t.samples(), op, serveSubRuns)
	rep.setProcess(t.d)
}

// ---- serve-frames -------------------------------------------------------

const (
	framesSessions = 256 // sessions per client connection
	frameLanes     = 8
	frameBeats     = 8
)

// frameSessionConfig gives session i its scheme: OPT-FIXED, DC and ACDC in
// turn, with every eighth session adaptive.
func frameSessionConfig(i int) dbiopt.SessionConfig {
	c := dbiopt.SessionConfig{Lanes: frameLanes, Beats: frameBeats}
	if i%8 == 7 {
		c.Adapt = true
	} else {
		c.Scheme = []string{"OPT-FIXED", "DC", "ACDC"}[i%3]
	}
	return c
}

// frameClient drives its sessions round-robin: request i goes to session
// i mod sessions with payload base+i of its pool.
type frameClient struct {
	l     loop
	mc    *dbiopt.MuxClient
	sess  []*dbiopt.MuxSession
	opens []float64 // us per Open
	pool  *framePool
	base  int
}

// dialFrameClient connects and opens the sessions. rttCap sizes the round
// trip record up front, so it does not grow (and move the memory peak)
// while the window is measured.
func dialFrameClient(addr string, sessions, base, rttCap int, pool *framePool) (*frameClient, error) {
	mc, err := dbiopt.DialMux(addr, dbiopt.SessionConfig{Lanes: frameLanes, Beats: frameBeats})
	if err != nil {
		return nil, err
	}
	fc := &frameClient{mc: mc, pool: pool, base: base}
	fc.l.rtts = make([]float64, 0, rttCap)
	for i := 0; i < sessions; i++ {
		t0 := time.Now()
		s, err := mc.Open(frameSessionConfig(i))
		if err != nil {
			mc.Close()
			return nil, err
		}
		fc.opens = append(fc.opens, float64(time.Since(t0))/1e3)
		fc.sess = append(fc.sess, s)
	}
	return fc, nil
}

func (fc *frameClient) loop() *loop { return &fc.l }
func (fc *frameClient) close()      { fc.mc.Close() }

func (fc *frameClient) run(ph loadPhase) {
	f := make(bus.Frame, frameLanes)
	fc.l.drive(ph, "server.MuxSession.EncodeFrame", func(i int) error {
		fc.pool.frame(fc.base+i, f)
		_, err := fc.sess[i%len(fc.sess)].EncodeFrame(f)
		return err
	})
}

// replay returns, per session, the totals a local replay of exactly the
// frames it was sent produces.
func (fc *frameClient) replay() ([]dbiopt.SessionTotals, error) {
	f := make(bus.Frame, frameLanes)
	want := make([]dbiopt.SessionTotals, len(fc.sess))
	for s := range fc.sess {
		r, err := newLocalReplay(frameSessionConfig(s), false)
		if err != nil {
			return nil, err
		}
		for i := s; i < fc.l.sent; i += len(fc.sess) {
			fc.pool.frame(fc.base+i, f)
			r.transmit(f)
		}
		want[s] = r.totals()
	}
	return want, nil
}

// verify closes every session and checks its final totals.
func (fc *frameClient) verify(rep *report, client int, want []dbiopt.SessionTotals) error {
	for i, s := range fc.sess {
		got, err := s.Close()
		if err != nil {
			return err
		}
		rep.attempted++
		if !replayCheck(rep.check, fmt.Sprintf("client %d session %d (%s)", client, i, s.Scheme()), got, want[i]) {
			rep.failed++
		}
	}
	_, err := fc.mc.Close()
	return err
}

func runServeFrames(cfg config) (*report, error) {
	rep := newReport(cfg)
	sessions, poolFrames, setups := framesSessions, 1<<16, 15
	if cfg.tiny {
		sessions, poolFrames, setups = 16, 64, 6
	}
	pools := make([]*framePool, frameClients)
	for c := range pools {
		pools[c] = newFramePool(mixedSource(cfg.seed, c), frameLanes, frameBeats, poolFrames)
	}
	rep.note("%s", loopbackNote)
	rep.note("closed loop, %d clients, one mux connection each with %d sessions driven round-robin; %dx%d frames, fresh seeded mixed-content payload per frame (pool of %d frames per client, cycled); schemes OPT-FIXED/DC/ACDC, 1 session in 8 adaptive",
		frameClients, sessions, frameLanes, frameBeats, poolFrames)

	// A client completes well under 100 000 frames a second.
	rttCap := int(cfg.budget(1).Seconds() / serveSubRuns * 100_000)
	var opens []float64
	dial := serveWorkload{clients: frameClients, dial: func(addr string, c, base int) (loadClient, error) {
		fc, err := dialFrameClient(addr, sessions, base, rttCap, pools[c])
		if err != nil {
			return nil, err
		}
		opens = append(opens, fc.opens...)
		return fc, nil
	}}
	measured := 1.0
	if cfg.traced {
		measured = 0.4
	}
	untraced, err := dial.measure(rep, cfg.budget(measured), false, setups)
	if err != nil {
		return nil, err
	}
	untraced.report(rep, 1, "frames_per_s", "frame")
	if !cfg.traced {
		return rep, nil
	}

	// Traced run: the same windows with a span per frame round trip, the
	// server's encode time from its metrics, and the bare loopback floor.
	t, err := dial.measure(rep, cfg.budget(0.4), true, 0)
	if err != nil {
		return nil, err
	}
	meanRTT := float64(t.rttSum) / float64(t.sent) / 1e3
	encodePerFrame := float64(t.encode) / float64(t.frames) / 1e3
	rep.layer["server.open_us_p50"] = median(opens)
	rep.layer["server.frame_rtt_us_p50"] = t.p50()
	rep.layer["server.frame_rtt_us_mean"] = meanRTT
	rep.layer["server.encode_ns_per_burst"] = float64(t.encode) / float64(t.bursts)
	rep.layer["server.non_encode_us"] = meanRTT - encodePerFrame
	rep.layer["server.allocs_per_frame"] = float64(t.d.mallocs) / float64(t.sent)
	rep.layer["bench.tracing_overhead_frac"] = untraced.rate(1)/t.rate(1) - 1
	rep.setProcess(t.d)
	rep.note("traced windows: %d frames, %d server-encoded bursts, server encode %.0f ns per frame", t.sent, t.bursts, encodePerFrame*1e3)
	n := 20000
	if cfg.tiny {
		n = 50
	}
	// Frame request: 5-byte header, 2-byte session id, 64 payload bytes;
	// reply: header, session id, 8 mask bytes.
	lo, err := loopbackRTT(5+2+frameLanes*frameBeats, 5+2+frameLanes, n)
	if err != nil {
		return nil, err
	}
	rep.layer["net.loopback_rtt_us"] = lo
	return rep, writeSpans(cfg.spansDir, fmt.Sprintf("serve-frames-seed%d.jsonl", cfg.seed), t.tracers...)
}

// ---- serve-batch --------------------------------------------------------

const (
	batchLanes  = 32
	batchBeats  = 8
	batchFrames = 256 // frames per message: 8192 bursts
	batchBlobs  = 16  // distinct blobs per client, sent in turn
)

// batchBlobSet is one client's pre-serialised messages and their decoded
// frames, for the replay.
type batchBlobSet struct {
	blobs  [][]byte
	frames [][]bus.Frame
}

// batchClient sends blob base+i of its set as request i, through one
// session.
type batchClient struct {
	l    loop
	mc   *dbiopt.MuxClient
	sess *dbiopt.MuxSession
	set  *batchBlobSet
	base int
	got  []dbiopt.SessionTotals // cumulative totals per message
}

func (bc *batchClient) loop() *loop { return &bc.l }
func (bc *batchClient) close()      { bc.mc.Close() }

func (bc *batchClient) run(ph loadPhase) {
	bc.l.drive(ph, "server.MuxSession.EncodeTrace", func(i int) error {
		tot, err := bc.sess.EncodeTrace(bc.set.blobs[(bc.base+i)%len(bc.set.blobs)])
		bc.got = append(bc.got, tot)
		return err
	})
}

// replay returns the cumulative totals a local replay reaches after each
// message sent. Lanes are independent, so it replays GOMAXPROCS lane
// ranges concurrently and sums their totals; a run sends enough bursts
// that one goroutine would take as long as the measurement.
func (bc *batchClient) replay() ([]dbiopt.SessionTotals, error) {
	cfg := bc.sess.Config()
	groups := runtime.GOMAXPROCS(0)
	parts := make([][]dbiopt.SessionTotals, groups)
	errs := make([]error, groups)
	var wg sync.WaitGroup
	for g := range parts {
		lo, hi := g*cfg.Lanes/groups, (g+1)*cfg.Lanes/groups
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := cfg
			sub.Lanes = hi - lo
			r, err := newLocalReplay(sub, true)
			if err != nil {
				errs[g] = err
				return
			}
			parts[g] = make([]dbiopt.SessionTotals, bc.l.sent)
			for i := range parts[g] {
				for _, f := range bc.set.frames[(bc.base+i)%len(bc.set.frames)] {
					r.transmit(f[lo:hi])
				}
				parts[g][i] = r.totals()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	want := parts[0]
	for _, part := range parts[1:] {
		for i, t := range part {
			// Every range saw the same frames; the rest are lane sums.
			want[i].Beats += t.Beats
			want[i].Coded = want[i].Coded.Add(t.Coded)
			want[i].Raw = want[i].Raw.Add(t.Raw)
			want[i].Switches += t.Switches
		}
	}
	return want, nil
}

// verify checks every returned cumulative total.
func (bc *batchClient) verify(rep *report, client int, want []dbiopt.SessionTotals) error {
	for i, w := range want {
		rep.attempted++
		if !replayCheck(rep.check, fmt.Sprintf("client %d message %d", client, i), bc.got[i], w) {
			rep.failed++
		}
	}
	_, err := bc.mc.Close()
	return err
}

func runServeBatch(cfg config) (*report, error) {
	rep := newReport(cfg)
	blobs, frames := batchBlobs, batchFrames
	if cfg.tiny {
		blobs, frames = 2, 4
	}
	sets := make([]*batchBlobSet, batchClients)
	for c := range sets {
		set := &batchBlobSet{}
		src := mixedSource(cfg.seed, c)
		for b := 0; b < blobs; b++ {
			blob, err := traceBlob(src, batchBeats, frames*batchLanes)
			if err != nil {
				return nil, err
			}
			decoded, err := decodeBlob(blob, batchLanes)
			if err != nil {
				return nil, err
			}
			set.blobs = append(set.blobs, blob)
			set.frames = append(set.frames, decoded)
		}
		sets[c] = set
	}
	rep.note("%s", loopbackNote)
	rep.note("closed loop, %d client, one session (OPT-FIXED, %dx%d); each message is a pre-serialised DBIT blob of %d frames (%d bursts), %d distinct seeded mixed-content blobs sent in turn",
		batchClients, batchLanes, batchBeats, frames, frames*batchLanes, blobs)

	units := frames * batchLanes
	dial := serveWorkload{clients: batchClients, dial: func(addr string, c, base int) (loadClient, error) {
		mc, err := dbiopt.DialMux(addr, dbiopt.SessionConfig{Lanes: batchLanes, Beats: batchBeats})
		if err != nil {
			return nil, err
		}
		sess, err := mc.Open(dbiopt.SessionConfig{})
		if err != nil {
			mc.Close()
			return nil, err
		}
		return &batchClient{mc: mc, sess: sess, set: sets[c], base: base}, nil
	}}
	measured := 1.0
	if cfg.traced {
		measured = 0.4
	}
	untraced, err := dial.measure(rep, cfg.budget(measured), false, 31)
	if err != nil {
		return nil, err
	}
	untraced.report(rep, units, "bursts_per_s", "message")
	if !cfg.traced {
		return rep, nil
	}

	t, err := dial.measure(rep, cfg.budget(0.4), true, 0)
	if err != nil {
		return nil, err
	}
	rep.layer["server.batch_rtt_us_p50"] = t.p50()
	rep.layer["server.batch_encode_share"] = float64(t.encode) / float64(t.rttSum)
	rep.layer["server.allocs_per_burst"] = float64(t.d.mallocs) / float64(t.bursts)
	rep.layer["bench.tracing_overhead_frac"] = untraced.rate(units)/t.rate(units) - 1
	rep.setProcess(t.d)
	n := 2000
	if cfg.tiny {
		n = 20
	}
	// Batch request: header, session id, the blob (12-byte header plus
	// payload); reply: header, session id, 56 bytes of totals.
	lo, err := loopbackRTT(5+1+12+units*batchBeats, 5+1+56, n)
	if err != nil {
		return nil, err
	}
	rep.layer["net.loopback_rtt_us"] = lo
	return rep, writeSpans(cfg.spansDir, fmt.Sprintf("serve-batch-seed%d.jsonl", cfg.seed), t.tracers...)
}

// decodeBlob reads a DBIT blob back into frames of the given lane count.
func decodeBlob(blob []byte, lanes int) ([]bus.Frame, error) {
	j := &jobRun{job: job{lanes: lanes}, blob: blob}
	fr, err := j.source()
	if err != nil {
		return nil, err
	}
	var out []bus.Frame
	for {
		f, err := fr.NextFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
}
