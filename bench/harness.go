package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"plurality/internal/stats"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestMetricListsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of the workload sees; every workload
// reports every one of them with -trace 0. What an "op" is depends on the
// workload: a replicate (clique-grid), one round of one replicate over all
// n agents (graph-grid), one client operation (daemon-submit).
var endToEnd = []metricDef{
	{"setup_s", "s", false},      // median of setupReps set-ups
	{"wall_s", "s", false},       // median time of one pass of the workload's fixed work
	{"ops_per_s", "1/s", true},   // ops completed per second over all passes
	{"op_p50_ms", "ms", false},   // op latency over every timed op
	{"op_p99_ms", "ms", false},   // ditto
	{"peak_rss_mb", "MB", false}, // VmHWM after set-up, warm-up and the first timed pass
}

// perLayer lists the per-layer metrics every workload reports with -trace
// 1; a layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dist.multinomial_ns", "ns", false},
		{"dist.binomial_ns", "ns", false},
		{"dist.fill_uniform_ns_per_draw", "ns", false},
		{"dist.alias_ns_per_draw", "ns", false},
	}
	for _, c := range cliqueCells {
		defs = append(defs, metricDef{"engine.step_us." + c.name, "us", false})
	}
	for _, c := range graphCells {
		defs = append(defs, metricDef{"engine.step_ns_per_agent." + c.name, "ns", false})
	}
	return append(defs,
		metricDef{"engine.scaling_w2_over_w1", "ratio", true},
		metricDef{"core.overhead_ns_per_round", "ns", false},
		metricDef{"core.allocs_per_round", "count", false},
		metricDef{"mc.worker_busy_share", "ratio", true},
		metricDef{"mc.queue_wait_p50_us", "us", false},
		metricDef{"mc.overhead_ns_per_rep", "ns", false},
		metricDef{"encode.ns_per_record", "ns", false},
		metricDef{"topo.build_s", "s", false},
		metricDef{"service.sync_p50_ms", "ms", false},
		metricDef{"service.sync_p99_ms", "ms", false},
		metricDef{"service.records_p50_ms", "ms", false},
		metricDef{"service.async_follow_p50_ms", "ms", false},
		metricDef{"service.metrics_p50_ms", "ms", false},
		metricDef{"service.exec_share", "ratio", true},
		metricDef{"journal.fsyncs_per_op", "count", false},
		metricDef{"journal.fsync_p50_us", "us", false},
		metricDef{"journal.write_p50_us", "us", false},
		metricDef{"journal.bytes_per_op", "bytes", false},
		metricDef{"runtime.gc_cpu_share", "ratio", false},
		metricDef{"trace_overhead", "ratio", false},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// samples is the number of op latencies behind op_p50_ms and
	// op_p99_ms; it is printed, not part of the JSON line.
	samples int
}

// workload builds one instance of a workload. The harness runs populate
// (if any) once, untimed, then times setup setupReps times, closes every
// instance but the last, runs warmPasses untimed passes on it, and then
// measures it.
type workload struct {
	setupReps  int
	warmPasses int
	calSyncs   int // appends+fsyncs in the host calibration kernel
	populate   func(o opts) error
	setup      func(o opts) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// prepare runs once after set-up, untimed: output checks that need
	// the whole stack and warm-up operations. Its ops count as attempted.
	prepare() (passStats, error)
	// pass runs the workload's fixed work once. tr is nil on untraced
	// passes; on traced ones the instance records spans into tr and
	// accumulates its per-layer counters.
	pass(tr *tracer) (passStats, error)
	// layers adds the per-layer metrics accumulated over traced passes.
	layers(m map[string]float64)
	close()
}

// passStats is what one pass reports.
type passStats struct {
	ops    int64     // operations completed
	failed int64     // operations that failed an output check
	latMs  []float64 // per-op latency in ms
	rounds int64     // simulated rounds
	digest [32]byte  // SHA-256 of the pass's records and final configs
}

var workloads = map[string]workload{
	"clique-grid":   {setupReps: 25, warmPasses: 1, setup: setupClique},
	"graph-grid":    {setupReps: 9, warmPasses: 2, setup: setupGraph},
	"daemon-submit": {setupReps: 15, warmPasses: 4, calSyncs: 400, populate: populateDaemon, setup: setupDaemon},
}

func workloadNames() []string {
	return []string{"clique-grid", "graph-grid", "daemon-submit"}
}

// measure runs one workload for o.seconds and reports its metrics and the
// digest every pass of the run produced.
func measure(w workload, o opts, log io.Writer) (result, [32]byte, error) {
	cal, err := newCalibrator(o.dir, w.calSyncs)
	if err != nil {
		return result{}, [32]byte{}, fmt.Errorf("calibration table: %w", err)
	}
	defer cal.close()
	if w.populate != nil {
		if err := w.populate(o); err != nil {
			return result{}, [32]byte{}, fmt.Errorf("populate: %w", err)
		}
	}
	// timed runs f between two calibration kernels and returns its time
	// scaled to the reference host speed (calibrate.go) and the scale;
	// withSyncs counts the kernel's appends (see factor). Back-to-back
	// calls share a kernel run: lastKernel is the previous call's closing
	// one, or nil when untimed work has run since.
	var lastKernel *kernelTime
	timed := func(withSyncs bool, f func() error) (scaled, factor float64, err error) {
		before := lastKernel
		if before == nil {
			k, err := cal.kernel()
			if err != nil {
				return 0, 0, err
			}
			before = &k
		}
		t := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		raw := time.Since(t).Seconds()
		after, err := cal.kernel()
		if err != nil {
			return 0, 0, err
		}
		lastKernel = &after
		factor = cal.factor(*before, after, withSyncs)
		return raw * factor, factor, nil
	}

	if o.smoke {
		w.setupReps, w.warmPasses = min(w.setupReps, 2), min(w.warmPasses, 1)
	}
	var setups []float64
	var inst instance
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Every set-up starts from a collected heap, so a collection the
		// previous one left due does not land in its time. Set-ups compute
		// and read files the page cache holds, so their scale leaves out
		// the kernel's appends.
		runtime.GC()
		s, _, err := timed(false, func() (err error) {
			inst, err = w.setup(o)
			return err
		})
		if err != nil {
			return result{}, [32]byte{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	defer inst.close()
	pre, err := inst.prepare()
	if err != nil {
		return result{}, [32]byte{}, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := result{Correct: true, Attempted: pre.ops, Failed: pre.failed, Metrics: map[string]metric{}}
	// check folds one pass into res. Every pass, traced or not, runs the
	// same inputs, so every digest must equal the first.
	var first *[32]byte
	check := func(st passStats) {
		res.Attempted += st.ops
		res.Failed += st.failed
		if first == nil {
			first = &st.digest
		} else if st.digest != *first {
			fmt.Fprintf(log, "plbench: record digest %x differs from the first pass's %x\n", st.digest[:8], first[:8])
			res.Correct = false
		}
	}
	// Untimed warm-up passes let caches fill, the heap grow to its working
	// size and lazy set-up finish.
	for i := 0; i < w.warmPasses; i++ {
		st, err := inst.pass(nil)
		if err != nil {
			return result{}, [32]byte{}, err
		}
		check(st)
	}
	lastKernel = nil

	var walls, factors, tracedWalls, latMs []float64
	var ops, rounds int64
	var peakRSS float64
	var rtBefore, rtAfter runtimeSample
	rtDelta := runtimeSample{}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		var st passStats
		rtBefore.read()
		wall, f, err := timed(true, func() (err error) {
			st, err = inst.pass(nil)
			return err
		})
		if err != nil {
			return result{}, [32]byte{}, err
		}
		rtAfter.read()
		rtDelta.add(rtAfter, rtBefore)
		walls = append(walls, wall)
		factors = append(factors, f)
		for _, l := range st.latMs {
			latMs = append(latMs, l*f)
		}
		if len(walls) == 1 {
			// Peak memory after a fixed amount of work: the service keeps
			// a small record of every job, so a later reading would grow
			// with the number of passes a run fits in.
			peakRSS = peakRSSMB() - calTableBytes/(1<<20)
		}
		ops += st.ops
		rounds += st.rounds
		check(st)
		if tr != nil {
			var tst passStats
			wall, _, err := timed(true, func() (err error) {
				tr.root = tr.begin("bench", o.workload, nil)
				tst, err = inst.pass(tr)
				tr.end(tr.root, nil)
				return err
			})
			if err != nil {
				return result{}, [32]byte{}, err
			}
			tracedWalls = append(tracedWalls, wall)
			check(tst)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(log, "plbench: %s: %d passes, %d ops, %d latency samples, digest %x\n", o.workload, len(walls), ops, len(latMs), first[:8])
	fmt.Fprintf(log, "plbench: scaled pass walls %.4v s, host factors %.4v, scaled set-ups %.4v s\n", walls, factors, setups)

	if tr == nil {
		sum := 0.0
		for _, x := range walls {
			sum += x
		}
		p := quantiles(latMs, 0.5, 0.99)
		vals := map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      median(walls),
			"ops_per_s":   float64(ops) / sum,
			"op_p50_ms":   p[0],
			"op_p99_ms":   p[1],
			"peak_rss_mb": peakRSS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		res.samples = len(latMs)
		return res, *first, nil
	}

	vals := map[string]float64{}
	inst.layers(vals)
	vals["trace_overhead"] = median(tracedWalls) / median(walls)
	if rounds > 0 {
		vals["core.allocs_per_round"] = rtDelta.allocs / float64(rounds)
	}
	if rtDelta.cpu > 0 {
		vals["runtime.gc_cpu_share"] = rtDelta.gcCPU / rtDelta.cpu
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	if err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed), log); err != nil {
		return result{}, [32]byte{}, err
	}
	return res, *first, nil
}

// runtimeSample reads the runtime/metrics counters the harness reports:
// heap objects allocated and GC versus total CPU time.
type runtimeSample struct{ allocs, gcCPU, cpu float64 }

var runtimeNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (s *runtimeSample) read() {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	s.allocs, s.gcCPU, s.cpu = val(ms[0].Value), val(ms[1].Value), val(ms[2].Value)
}

func (s *runtimeSample) add(after, before runtimeSample) {
	s.allocs += after.allocs - before.allocs
	s.gcCPU += after.gcCPU - before.gcCPU
	s.cpu += after.cpu - before.cpu
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// which includes the calibration table.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }

// quantiles returns the linearly interpolated quantiles of xs, or zeros
// for an empty sample (a layer the workload does not exercise).
func quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, len(qs))
	}
	return stats.Quantiles(xs, qs...)
}
