package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"dbiopt"
	"dbiopt/internal/adapt"
	"dbiopt/internal/bus"
	"dbiopt/internal/dbi"
	"dbiopt/internal/phy"
	"dbiopt/internal/trace"
)

// job is one offline-trace costing job: a scheme on a bus geometry, run
// over its own seeded trace.
type job struct {
	name         string
	scheme       string // registry name; "" runs an adaptive lane set
	weights      dbi.Weights
	lanes, beats int
	frames       int // frames in the job's trace
}

// offlineJobs covers each branch of the encode core: the integer and the
// float trellis, narrow (<= 64 beats) and multi-word masks, a scheme whose
// wide mask form wins and one whose narrow form wins, and adaptive shadow
// encoding. Trace lengths make one pass a long pipeline run (32 to 64
// chunks of DefaultChunkFrames), about 5 to 25 ms on a 2-core host.
func offlineJobs(tiny bool) []job {
	link := phy.POD135(3*phy.PicoFarad, 12*phy.Gbps).Weights()
	jobs := []job{
		{"opt_fixed_32x8", "OPT-FIXED", dbi.FixedWeights, 32, 8, 2048},
		{"opt_link_8x8", "OPT", link, 8, 8, 4096},
		{"acdc_8x64", "ACDC", dbi.FixedWeights, 8, 64, 4096},
		{"greedy_8x64", "GREEDY", link, 8, 64, 4096},
		{"dc_8x128", "DC", dbi.FixedWeights, 8, 128, 4096},
		{"adaptive_8x8", "", dbi.FixedWeights, 8, 8, 8192},
	}
	for i := range jobs {
		if jobs[i].name != jobNames[i] {
			panic("perfbench: job table out of step with jobNames")
		}
		if tiny {
			jobs[i].frames = 8
		}
	}
	return jobs
}

// jobRun is one job's inputs, oracle and built pipeline.
type jobRun struct {
	job
	blob   []byte
	frames []bus.Frame // the blob decoded once, for the layer timings
	bursts int
	// ref holds each lane's totals from streamReplay; refSwitches its
	// adaptive switch count.
	ref         []bus.Cost
	refSwitches int

	kern  *dbi.Kernel   // nil for the adaptive job
	cands []*dbi.Kernel // the adaptive job's candidate kernels
	pipe  *dbi.Pipeline
	ls    *dbi.LaneSet // driven by the pipeline
	ls2   *dbi.LaneSet // driven frame by frame
}

// prepareJob generates the job's trace and its oracle. It runs before any
// clock starts.
func prepareJob(seed int64, i int, jb job) (*jobRun, error) {
	j := &jobRun{job: jb, bursts: jb.frames * jb.lanes}
	blob, err := traceBlob(mixedSource(seed, i), jb.beats, j.bursts)
	if err != nil {
		return nil, err
	}
	j.blob = blob
	src, err := j.source()
	if err != nil {
		return nil, err
	}
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		j.frames = append(j.frames, f)
	}
	if len(j.frames) != jb.frames {
		return nil, fmt.Errorf("%s: decoded %d frames, wrote %d", jb.name, len(j.frames), jb.frames)
	}
	if _, err := j.build(); err != nil {
		return nil, err
	}
	oracle, err := j.streamReplay()
	if err != nil {
		return nil, err
	}
	for l := 0; l < jb.lanes; l++ {
		j.ref = append(j.ref, oracle.Lane(l).TotalCost())
	}
	j.refSwitches = switchesOf(oracle)
	return j, nil
}

// streamReplay encodes the decoded trace with LaneSet.Transmit, which runs
// one Stream per lane burst by burst: the serial oracle every other layer
// is checked against.
func (j *jobRun) streamReplay() (*dbi.LaneSet, error) {
	var ls *dbi.LaneSet
	if j.scheme == "" {
		var err error
		if ls, err = dbiopt.NewAdaptiveLaneSet(dbiopt.AdaptiveConfig{}, j.lanes); err != nil {
			return nil, err
		}
	} else {
		enc, err := dbiopt.NewEncoder(j.scheme, j.weights)
		if err != nil {
			return nil, err
		}
		ls = dbiopt.NewLaneSet(enc, j.lanes)
	}
	for _, f := range j.frames {
		ls.Transmit(f)
	}
	return ls, nil
}

// switchesOf sums the adaptive scheme switches over a lane set's lanes.
func switchesOf(ls *dbi.LaneSet) int {
	n := 0
	for l := 0; l < ls.Lanes(); l++ {
		if a, ok := ls.Lane(l).Adapter().(*adapt.Controller); ok {
			n += a.Switches()
		}
	}
	return n
}

// build is the job's set-up: compile the scheme for the geometry, then
// construct the pipeline and lane sets. It returns the compile time.
func (j *jobRun) build() (time.Duration, error) {
	geom := dbi.Geometry{Lanes: j.lanes, Beats: j.beats}
	t0 := time.Now()
	if j.scheme == "" {
		j.cands = j.cands[:0]
		for _, name := range adapt.DefaultCandidates() {
			k, err := dbi.Compile(name, dbi.FixedWeights, geom)
			if err != nil {
				return 0, err
			}
			j.cands = append(j.cands, k)
		}
		compile := time.Since(t0)
		j.pipe = j.cands[0].NewPipeline(j.lanes)
		var err error
		if j.ls, err = dbiopt.NewAdaptiveLaneSet(dbiopt.AdaptiveConfig{}, j.lanes); err != nil {
			return 0, err
		}
		j.ls2, err = dbiopt.NewAdaptiveLaneSet(dbiopt.AdaptiveConfig{}, j.lanes)
		return compile, err
	}
	k, err := dbi.Compile(j.scheme, j.weights, geom)
	if err != nil {
		return 0, err
	}
	compile := time.Since(t0)
	j.kern = k
	j.pipe = k.NewPipeline(j.lanes)
	j.ls = k.NewLaneSet(j.lanes)
	j.ls2 = k.NewLaneSet(j.lanes)
	return compile, nil
}

// source opens the job's trace the way dbitrace cost does.
func (j *jobRun) source() (*trace.FrameReader, error) {
	r, err := trace.NewReader(bytes.NewReader(j.blob))
	if err != nil {
		return nil, err
	}
	return trace.NewFrameReader(r, j.lanes)
}

// verify checks a lane set's per-lane totals and switch count against the
// oracle.
func (j *jobRun) verify(c *checker, layer string, ls *dbi.LaneSet) bool {
	ok := true
	for l := 0; l < j.lanes; l++ {
		if got := ls.Lane(l).TotalCost(); !c.same(got, j.ref[l]) {
			c.fail("%s %s lane %d: got %+v, want %+v", j.name, layer, l, got, j.ref[l])
			ok = false
		}
	}
	if switches := switchesOf(ls); !c.sameInt(switches, j.refSwitches) {
		c.fail("%s %s: %d switches, want %d", j.name, layer, switches, j.refSwitches)
		ok = false
	}
	return ok
}

// checkFrames checks how many frames a layer consumed.
func (j *jobRun) checkFrames(c *checker, layer string, n int) bool {
	if !c.sameInt(n, j.job.frames) {
		c.fail("%s %s: %d frames, want %d", j.name, layer, n, j.job.frames)
		return false
	}
	return true
}

// pass costs the job's trace once, decoding it from the blob through the
// pipeline into a reset lane set, and returns the time from opening the
// trace to the pipeline's return. With a tracer it records the pipeline
// call and every frame decode as spans of request req.
func (j *jobRun) pass(c *checker, tr *tracer, req int64) (time.Duration, bool) {
	j.ls.Reset()
	t0 := time.Now()
	if tr != nil {
		tr.begin("pipeline.RunLanes", req)
	}
	fr, err := j.source()
	var n int
	if err == nil {
		var src dbi.FrameSource = fr
		if tr != nil {
			src = &tracedSource{src: fr, tr: tr, req: req}
		}
		n, err = j.pipe.RunLanes(src, j.ls)
	}
	if tr != nil {
		tr.end()
	}
	d := time.Since(t0)
	if err != nil {
		c.fail("%s pipeline: %v", j.name, err)
		return d, false
	}
	return d, j.checkFrames(c, "pipeline", n) && j.verify(c, "pipeline", j.ls)
}

// tracedSource records each frame decode as a span.
type tracedSource struct {
	src dbi.FrameSource
	tr  *tracer
	req int64
}

func (s *tracedSource) NextFrame() (bus.Frame, error) {
	s.tr.begin("trace.NextFrame", s.req)
	f, err := s.src.NextFrame()
	s.tr.end()
	return f, err
}

// kernelPass runs Kernel.Advance per lane over the decoded trace. For the
// adaptive job it runs every candidate's kernel per burst, the live and
// shadow encodes an adaptive lane performs; their totals have no single
// oracle, so only the static jobs are checked.
func (j *jobRun) kernelPass(c *checker) bool {
	if j.kern == nil {
		for l := 0; l < j.lanes; l++ {
			for _, k := range j.cands {
				st := bus.InitialLineState
				for _, f := range j.frames {
					_, st = k.Advance(st, f[l])
				}
			}
		}
		return true
	}
	ok := true
	for l := 0; l < j.lanes; l++ {
		st := bus.InitialLineState
		var tot bus.Cost
		for _, f := range j.frames {
			var cst bus.Cost
			cst, st = j.kern.Advance(st, f[l])
			tot = tot.Add(cst)
		}
		if !c.same(tot, j.ref[l]) {
			c.fail("%s kernel lane %d: got %+v, want %+v", j.name, l, tot, j.ref[l])
			ok = false
		}
	}
	return ok
}

// laneSetPass encodes the decoded trace frame by frame with
// LaneSet.TransmitBatch.
func (j *jobRun) laneSetPass(c *checker) bool {
	j.ls2.Reset()
	for _, f := range j.frames {
		j.ls2.TransmitBatch(f)
	}
	return j.verify(c, "laneset", j.ls2)
}

// framesPass runs the pipeline over the already-decoded frames, isolating
// the pipeline's own allocations and CPU from the trace decode.
func (j *jobRun) framesPass(c *checker) bool {
	j.ls.Reset()
	n, err := j.pipe.RunLanes(dbi.FramesOf(j.frames), j.ls)
	if err != nil {
		c.fail("%s pipeline: %v", j.name, err)
		return false
	}
	return j.checkFrames(c, "pipeline", n) && j.verify(c, "pipeline", j.ls)
}

// decodePass decodes the blob without encoding.
func (j *jobRun) decodePass(c *checker) bool {
	fr, err := j.source()
	if err != nil {
		c.fail("%s decode: %v", j.name, err)
		return false
	}
	n := 0
	for {
		if _, err := fr.NextFrame(); err == io.EOF {
			break
		} else if err != nil {
			c.fail("%s decode: %v", j.name, err)
			return false
		}
		n++
	}
	return j.checkFrames(c, "decode", n)
}

// adaptPass times the oracle on the adaptive job: adaptive streams lane by
// lane, the adapt layer without a batch around it.
func (j *jobRun) adaptPass(c *checker) bool {
	ls, err := j.streamReplay()
	if err != nil {
		c.fail("%s adapt: %v", j.name, err)
		return false
	}
	return j.verify(c, "adapt", ls)
}

// offlineRounds is how many times the measured phase cycles through the
// jobs, so slow spells of a shared host spread over every job.
const offlineRounds = 10

// measurePasses runs every job in blocks — one warm-up pass, then passes
// for the block's share of budget — for offlineRounds rounds, and returns
// each job's pass times.
func measurePasses(rep *report, runs []*jobRun, budget time.Duration, tr *tracer) [][]time.Duration {
	out := make([][]time.Duration, len(runs))
	block := budget / time.Duration(offlineRounds*len(runs))
	var req int64
	for round := 0; round < offlineRounds; round++ {
		for i, j := range runs {
			var start time.Time
			// Pass -1 is the block's warm-up: checked, neither timed nor
			// traced.
			for n := -1; n < 2 || time.Since(start) < block; n++ {
				t := tr
				if n < 0 {
					t = nil
				} else if n == 0 {
					start = time.Now()
				}
				req++
				d, ok := j.pass(rep.check, t, req)
				rep.attempted++
				if !ok {
					rep.failed++
				}
				if n >= 0 {
					out[i] = append(out[i], d)
				}
			}
		}
	}
	return out
}

// passStats reduces pass times to the workload's end-to-end figures: the
// geometric means over jobs of burst rate, median and tail pass time.
func passStats(runs []*jobRun, passes [][]time.Duration) (rates []float64, rate, p50, tl float64) {
	var p50s, tails []float64
	for i, j := range runs {
		us := micros(passes[i])
		m := median(us)
		rates = append(rates, float64(j.bursts)/(m/1e6))
		p50s = append(p50s, m)
		tails = append(tails, tail(us))
	}
	return rates, geomean(rates), geomean(p50s), geomean(tails)
}

func runOfflineTrace(cfg config) (*report, error) {
	rep := newReport(cfg)
	jobs := offlineJobs(cfg.tiny)
	runs := make([]*jobRun, len(jobs))
	for i, jb := range jobs {
		j, err := prepareJob(cfg.seed, i, jb)
		if err != nil {
			return nil, err
		}
		runs[i] = j
		settle()
	}
	rep.note("inputs: one seeded mixed-content DBIT trace per job (text, pointers, image, sparse, uniform; %d-burst phases); default pipeline options, GOMAXPROCS workers", phasePeriod)

	// Set-up: compile each job's scheme and build its pipeline and lane
	// sets, several times; the median is reported.
	var compiles []float64
	setups, err := repeat(cfg.budget(0.01), 20, func() error {
		for _, j := range runs {
			d, err := j.build()
			if err != nil {
				return err
			}
			if j.kern != nil {
				compiles = append(compiles, float64(d)/1e3)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setup := time.Duration(median(micros(setups)) * 1e3)

	measured := 1.0
	if cfg.traced {
		measured = 0.25
	}
	settle()
	p := takeProbe()
	passes := measurePasses(rep, runs, cfg.budget(measured), nil)
	d := p.since()
	rates, rate, p50, tl := passStats(runs, passes)
	rep.setE2E(setup, d.peakMB, rate, p50, tl)
	for i, j := range runs {
		rep.addNamed(j.name+".bursts_per_s", rates[i], "1/s")
		rep.note("%s: %d bursts per pass, %d passes, median %.1f us", j.name, j.bursts, len(passes[i]), median(micros(passes[i])))
	}

	// Every layer's totals must equal the serial replay, also when only
	// end-to-end numbers are wanted.
	for _, j := range runs {
		for _, layerOK := range []bool{j.kernelPass(rep.check), j.laneSetPass(rep.check), j.framesPass(rep.check)} {
			rep.attempted++
			if !layerOK {
				rep.failed++
			}
		}
	}
	if !cfg.traced {
		rep.setProcess(d)
		return rep, nil
	}

	// Traced run: the same passes with spans around the pipeline call and
	// every frame decode, then each layer on its own.
	tr := newTracer(time.Now(), 50_000)
	p = takeProbe()
	tpasses := measurePasses(rep, runs, cfg.budget(0.25), tr)
	_, trate, _, _ := passStats(runs, tpasses)
	rep.layer["bench.tracing_overhead_frac"] = rate/trate - 1
	var bursts float64
	for i, j := range runs {
		bursts += float64(j.bursts * len(tpasses[i]))
		rep.layer["pipeline.ns_per_burst."+j.name] = median(micros(tpasses[i])) * 1e3 / float64(j.bursts)
	}
	rep.layer["trace.decode_ns_per_burst"] = float64(totals("trace.NextFrame", tr).total) / bursts
	rep.layer["pipeline.self_ns_per_burst"] = float64(totals("pipeline.RunLanes", tr).self()) / bursts
	rep.layer["compile.us"] = median(compiles)
	offlineLayers(cfg, rep, runs, tr)
	rep.setProcess(p.since())
	return rep, writeSpans(cfg.spansDir, fmt.Sprintf("offline-trace-seed%d.jsonl", cfg.seed), tr)
}

// offlineLayers times each layer alone on every job's inputs: kernel, lane
// set, pipeline over decoded frames (allocations, CPU), trace decode
// (allocations) and the adaptive stream.
func offlineLayers(cfg config, rep *report, runs []*jobRun, tr *tracer) {
	slot := cfg.budget(0.5) / time.Duration(4*len(runs)+1)
	layer := func(name string, j *jobRun, fn func(*checker) bool) (ns float64, d probeDelta, n int) {
		p := takeProbe()
		ds, _ := repeat(slot, 2, func() error {
			tr.begin(name, 0)
			ok := fn(rep.check)
			tr.end()
			rep.attempted++
			if !ok {
				rep.failed++
			}
			return nil
		})
		return median(micros(ds)) * 1e3 / float64(j.bursts), p.since(), len(ds)
	}
	var laneNs, pipeCPU, pipeAllocs, decodeAllocs, bursts, pipeWall float64
	for _, j := range runs {
		kns, _, _ := layer("kernel.Advance", j, j.kernelPass)
		rep.layer["kernel.ns_per_burst."+j.name] = kns
		lns, _, _ := layer("laneset.TransmitBatch", j, j.laneSetPass)
		rep.layer["laneset.ns_per_burst."+j.name] = lns
		_, pd, n := layer("pipeline.RunLanes.frames", j, j.framesPass)
		laneNs += lns * float64(n*j.bursts)
		pipeCPU += float64(pd.cpu)
		pipeWall += float64(pd.wall)
		pipeAllocs += float64(pd.mallocs)
		bursts += float64(n * j.bursts)
		_, dd, dn := layer("trace.decode", j, j.decodePass)
		decodeAllocs += float64(dd.mallocs) / float64(dn*j.bursts)
		if j.scheme == "" {
			ans, _, _ := layer("adapt.LaneSet.Transmit", j, j.adaptPass)
			rep.layer["adapt.ns_per_burst"] = ans
			rep.layer["adapt.switches"] = float64(j.refSwitches)
		}
	}
	rep.layer["pipeline.allocs_per_burst"] = pipeAllocs / bursts
	rep.layer["pipeline.cpu_per_wall"] = pipeCPU / pipeWall
	rep.layer["pipeline.efficiency"] = laneNs / pipeCPU
	rep.layer["trace.allocs_per_burst"] = decodeAllocs / float64(len(runs))
}
