package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dbiopt/internal/bus"
)

// metric is one named, unit-carrying number of a report.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order. What one unit of work and one operation are differs
// per workload; README.md defines both for each.
var e2eMetrics = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "mem_peak_mb", Unit: "MB"},
	{Name: "throughput_per_s", Unit: "1/s"},
	{Name: "latency_p50_us", Unit: "us"},
	{Name: "latency_tail_us", Unit: "us"},
}

// jobNames are the offline-trace jobs, one per scheme and geometry.
var jobNames = []string{"opt_fixed_32x8", "opt_link_8x8", "acdc_8x64", "greedy_8x64", "dc_8x128", "adaptive_8x8"}

// layerMetrics are the per-layer metrics of a traced run, in BENCHMARK.json
// order. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = func() []metric {
	m := []metric{
		{Name: "trace.decode_ns_per_burst", Unit: "ns/burst"},
		{Name: "trace.allocs_per_burst", Unit: "allocs/burst"},
		{Name: "compile.us", Unit: "us"},
	}
	for _, layer := range []string{"kernel", "laneset", "pipeline"} {
		for _, j := range jobNames {
			m = append(m, metric{Name: layer + ".ns_per_burst." + j, Unit: "ns/burst"})
		}
	}
	return append(m,
		metric{Name: "pipeline.self_ns_per_burst", Unit: "ns/burst"},
		metric{Name: "pipeline.allocs_per_burst", Unit: "allocs/burst"},
		metric{Name: "pipeline.cpu_per_wall", Unit: "ratio"},
		metric{Name: "pipeline.efficiency", Unit: "ratio"},
		metric{Name: "adapt.ns_per_burst", Unit: "ns/burst"},
		metric{Name: "adapt.switches", Unit: "count"},
		metric{Name: "server.open_us_p50", Unit: "us"},
		metric{Name: "server.frame_rtt_us_p50", Unit: "us"},
		metric{Name: "server.frame_rtt_us_mean", Unit: "us"},
		metric{Name: "server.encode_ns_per_burst", Unit: "ns/burst"},
		metric{Name: "server.non_encode_us", Unit: "us"},
		metric{Name: "server.allocs_per_frame", Unit: "allocs/frame"},
		metric{Name: "server.batch_rtt_us_p50", Unit: "us"},
		metric{Name: "server.batch_encode_share", Unit: "ratio"},
		metric{Name: "server.allocs_per_burst", Unit: "allocs/burst"},
		metric{Name: "net.loopback_rtt_us", Unit: "us"},
		metric{Name: "experiments.fig4_ms", Unit: "ms"},
		metric{Name: "experiments.fig7_ms", Unit: "ms"},
		metric{Name: "experiments.fig8_ms", Unit: "ms"},
		metric{Name: "experiments.table1_ms", Unit: "ms"},
		metric{Name: "gc.count", Unit: "count"},
		metric{Name: "gc.pause_ms", Unit: "ms"},
		metric{Name: "process.cpu_per_wall", Unit: "ratio"},
		metric{Name: "bench.tracing_overhead_frac", Unit: "ratio"},
	)
}()

// report collects one run's results.
type report struct {
	traced bool
	notes  []string
	e2e    map[string]float64
	layer  map[string]float64
	// named holds the workload's own end-to-end figures under the names
	// users know them by (frames_per_s, figures_s, ...), for the text
	// report only.
	named     []metric
	attempted int
	failed    int
	check     *checker
}

func newReport(cfg config) *report {
	return &report{
		traced: cfg.traced,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		check:  &checker{corrupt: cfg.corrupt},
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) addNamed(name string, value float64, unit string) {
	r.named = append(r.named, metric{Name: name, Value: value, Unit: unit})
}

// setE2E records the five end-to-end metrics.
func (r *report) setE2E(setup time.Duration, peakMB, throughput, p50us, tailUs float64) {
	r.e2e["setup_s"] = setup.Seconds()
	r.e2e["mem_peak_mb"] = peakMB
	r.e2e["throughput_per_s"] = throughput
	r.e2e["latency_p50_us"] = p50us
	r.e2e["latency_tail_us"] = tailUs
}

// setProcess records the process-level per-layer metrics of a measured
// phase.
func (r *report) setProcess(d probeDelta) {
	r.layer["gc.count"] = float64(d.gcs)
	r.layer["gc.pause_ms"] = d.gcPause.Seconds() * 1e3
	r.layer["process.cpu_per_wall"] = d.cpuPerWall()
}

// write prints the text report and, as the last line, the JSON result.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintf(bw, "note: %s\n", n)
	}
	for _, m := range r.named {
		fmt.Fprintf(bw, "metric %s = %s %s\n", m.Name, fmtNum(m.Value), m.Unit)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(bw, "metric failed_frac = %s ratio (%d failed of %d attempted)\n", fmtNum(failedFrac), r.failed, r.attempted)
	for _, f := range r.check.failures {
		fmt.Fprintf(bw, "MISMATCH: %s\n", f)
	}
	for _, m := range e2eMetrics {
		if v, ok := r.e2e[m.Name]; ok {
			fmt.Fprintf(bw, "e2e %s = %s %s\n", m.Name, fmtNum(v), m.Unit)
		}
	}
	out := map[string]map[string]any{}
	want := e2eMetrics
	vals := r.e2e
	if r.traced {
		want, vals = layerMetrics, r.layer
		for _, m := range layerMetrics {
			fmt.Fprintf(bw, "layer %s = %s %s\n", m.Name, fmtNum(r.layer[m.Name]), m.Unit)
		}
	}
	for _, m := range want {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checker compares outputs against their replays and records mismatches.
type checker struct {
	corrupt  bool
	tripped  bool
	failures []string
}

// same reports whether got equals want. With corrupt set, the first
// comparison sees got perturbed by one zero. Callers describe a mismatch
// with fail, so a passing check formats (and allocates) nothing.
func (c *checker) same(got, want bus.Cost) bool {
	if c.corrupt && !c.tripped {
		c.tripped = true
		got.Zeros++
	}
	return got == want
}

// sameInt is same for plain counts (frames, beats, switches).
func (c *checker) sameInt(got, want int) bool {
	return c.same(bus.Cost{Zeros: got}, bus.Cost{Zeros: want})
}

func (c *checker) fail(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// ---- statistics -------------------------------------------------------

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest percentile, capped at p99, that leaves at least ten
// of n samples beyond it; never below the median.
func tailQ(n int) float64 {
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

// tail is xs's tailQ quantile: the latency_tail_us statistic.
func tail(xs []float64) float64 { return quantile(xs, tailQ(len(xs))) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// micros converts durations to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// repeat calls fn until budget has elapsed and it has run at least min
// times, returning each call's duration. It stops at the first error.
func repeat(budget time.Duration, min int, fn func() error) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < min || time.Since(start) < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// ---- process measurements ----------------------------------------------

// probe is a snapshot of the process counters a measured phase is judged
// by: wall and CPU time, garbage collections and heap allocations. It also
// samples the memory footprint until since is called.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	gcs     uint32
	gcPause uint64
	mallocs uint64
	mem     *memSampler
}

type probeDelta struct {
	wall, cpu, gcPause time.Duration
	gcs                uint32
	mallocs            uint64
	// peakMB is the phase's typical peak memory footprint (memSampler).
	peakMB float64
}

func (d probeDelta) cpuPerWall() float64 { return d.cpu.Seconds() / d.wall.Seconds() }

// add sums the counters of two phases, keeping the larger memory peak.
func (d probeDelta) add(o probeDelta) probeDelta {
	return probeDelta{
		wall:    d.wall + o.wall,
		cpu:     d.cpu + o.cpu,
		gcPause: d.gcPause + o.gcPause,
		gcs:     d.gcs + o.gcs,
		mallocs: d.mallocs + o.mallocs,
		peakMB:  math.Max(d.peakMB, o.peakMB),
	}
}

// settle collects the garbage that input generation or an earlier window
// left behind and returns the freed memory to the OS, so a measured phase
// starts from its live heap.
func settle() { debug.FreeOSMemory() }

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{wall: time.Now(), cpu: cpuTime(), gcs: ms.NumGC, gcPause: ms.PauseTotalNs, mallocs: ms.Mallocs, mem: startMemSampler()}
}

func (p probe) since() probeDelta {
	peak := p.mem.finish()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probeDelta{
		wall:    time.Since(p.wall),
		cpu:     cpuTime() - p.cpu,
		gcs:     ms.NumGC - p.gcs,
		gcPause: time.Duration(ms.PauseTotalNs - p.gcPause),
		mallocs: ms.Mallocs - p.mallocs,
		peakMB:  peak,
	}
}

// cpuTime returns the CPU time, user plus system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler reads the memory the Go runtime holds from the OS (heap,
// stacks and runtime structures, minus what it has released back) every
// memInterval. Its statistic is the median over memWindows equal windows
// of each window's peak: a peak that one late garbage collection cannot
// set on its own.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

const (
	memInterval = 10 * time.Millisecond
	memWindows  = 10
)

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(memInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

var memMetrics = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func (m *memSampler) sample() {
	s := append([]metrics.Sample(nil), memMetrics...)
	metrics.Read(s)
	held := s[0].Value.Uint64() - s[1].Value.Uint64()
	m.samples = append(m.samples, float64(held)/(1<<20))
}

// finish stops the sampler and returns its statistic in MB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	m.sample()
	n := len(m.samples)
	var peaks []float64
	for w := 0; w < memWindows; w++ {
		lo, hi := w*n/memWindows, (w+1)*n/memWindows
		if hi > lo {
			peaks = append(peaks, quantile(m.samples[lo:hi], 1))
		}
	}
	return median(peaks)
}
