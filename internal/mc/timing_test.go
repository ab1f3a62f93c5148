package mc

import (
	"context"
	"testing"
	"time"

	"plurality/internal/rng"
)

func timingJob(name string, reps int) Job {
	return Job{
		Name: name, Seed: 42, Replicates: reps,
		New: func(seed uint64) Run {
			return func() Record {
				time.Sleep(time.Millisecond)
				return Record{Rounds: int(seed % 100), Success: true}
			}
		},
	}
}

// TestOnTiming pins the timing side channel: one callback per computed
// replicate, plausible queue-wait/exec values, worker indexes within the
// pool, and no timing for resumed replicates.
func TestOnTiming(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	const reps = 12
	var timings []RepTiming
	recs, err := pool.Run(context.Background(), timingJob("t", reps), RunOpts{
		OnTiming: func(tm RepTiming) { timings = append(timings, tm) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != reps || len(timings) != reps {
		t.Fatalf("recs=%d timings=%d, want %d each", len(recs), len(timings), reps)
	}
	seen := make([]bool, reps)
	for _, tm := range timings {
		if tm.Rep < 0 || tm.Rep >= reps || seen[tm.Rep] {
			t.Fatalf("bad or duplicate rep in timing %+v", tm)
		}
		seen[tm.Rep] = true
		if tm.Worker < 0 || tm.Worker >= pool.Workers() {
			t.Errorf("rep %d ran on worker %d, pool has %d", tm.Rep, tm.Worker, pool.Workers())
		}
		if tm.Exec < time.Millisecond/2 {
			t.Errorf("rep %d exec %v, want >= ~1ms", tm.Rep, tm.Exec)
		}
		if tm.QueueWait < 0 {
			t.Errorf("rep %d negative queue wait %v", tm.Rep, tm.QueueWait)
		}
	}

	// Resumed replicates never fire OnTiming — they did not run here.
	done := recs[:reps/2]
	timings = timings[:0]
	if _, err := pool.Run(context.Background(), timingJob("t", reps), RunOpts{
		Done:     done,
		OnTiming: func(tm RepTiming) { timings = append(timings, tm) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(timings) != reps-len(done) {
		t.Errorf("resume fired %d timings, want %d", len(timings), reps-len(done))
	}
	for _, tm := range timings {
		if tm.Rep < len(done) {
			t.Errorf("resumed rep %d fired OnTiming", tm.Rep)
		}
	}
}

// TestWorkerBusy pins the pool utilization counters: all work is
// attributed, counters are cumulative and consistent with the number of
// tasks run.
func TestWorkerBusy(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	if _, err := pool.Run(context.Background(), timingJob("b", 8), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	busy := pool.WorkerBusy()
	tasks := pool.WorkerTasks()
	if len(busy) != 2 || len(tasks) != 2 {
		t.Fatalf("snapshot lengths %d/%d, want 2", len(busy), len(tasks))
	}
	var totalTasks int64
	var totalBusy time.Duration
	for w := range busy {
		if busy[w] < 0 || (tasks[w] > 0 && busy[w] == 0) {
			t.Errorf("worker %d: %d tasks but busy %v", w, tasks[w], busy[w])
		}
		totalTasks += tasks[w]
		totalBusy += busy[w]
	}
	if totalTasks != 8 {
		t.Errorf("total tasks %d, want 8", totalTasks)
	}
	// 8 replicates × ≥1ms each must be attributed somewhere.
	if totalBusy < 8*time.Millisecond/2 {
		t.Errorf("total busy %v implausibly low", totalBusy)
	}
	// Counters are cumulative across jobs.
	if _, err := pool.Run(context.Background(), timingJob("b2", 4), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, v := range pool.WorkerTasks() {
		after += v
	}
	if after != 12 {
		t.Errorf("cumulative tasks %d, want 12", after)
	}
}

// BenchmarkPoolDispatch measures what Pool.Run costs per replicate beyond
// the replicate's own work, on 2 workers. Each replicate draws 1024
// values from its generator, a few microseconds of fixed work, so a
// dispatch cost of that order shows. It reports the replicate's exec time
// (exec-ns/rep, from OnTiming) and the worker-slot overhead per replicate
// (slot-ns/rep): wall time × workers − Σ exec, over the replicates, the
// definition of plbench's mc.overhead_ns_per_rep.
func BenchmarkPoolDispatch(b *testing.B) {
	const workers, reps = 2, 1000
	pool := NewPool(workers)
	defer pool.Close()
	job := Job{Name: "dispatch", Seed: 1, Replicates: reps, New: func(seed uint64) Run {
		return func() Record {
			r := rng.New(seed)
			var x uint64
			for i := 0; i < 1024; i++ {
				x ^= r.Uint64()
			}
			return Record{Rounds: int(x & 1)}
		}
	}}
	var execNs, runs int64
	opts := RunOpts{OnTiming: func(t RepTiming) { execNs += int64(t.Exec) }}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pool.Run(context.Background(), job, opts); err != nil {
			b.Fatal(err)
		}
		runs++
	}
	done := float64(runs * reps)
	b.ReportMetric(float64(execNs)/done, "exec-ns/rep")
	b.ReportMetric((float64(b.Elapsed().Nanoseconds())*workers-float64(execNs))/done, "slot-ns/rep")
}
