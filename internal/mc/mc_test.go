package mc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"plurality/internal/rng"
)

func TestRepSeedsDeterministicAndDistinct(t *testing.T) {
	a := RepSeeds(7, 64)
	b := RepSeeds(7, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RepSeeds not deterministic")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate replicate seed %d", s)
		}
		seen[s] = true
	}
	// Jump isolation: the seed stream must not collide with the first
	// direct draws a caller makes from the same base seed.
	direct := rng.New(7)
	for i := 0; i < 64; i++ {
		if seen[direct.Uint64()] {
			t.Fatal("replicate seed collides with direct draws from the base seed")
		}
	}
}

func TestMapDeterministicAcrossWorkers(t *testing.T) {
	f := func(rep int, r *rng.Rand) float64 { return float64(rep) + r.Float64() }
	var want []float64
	for _, w := range []int{1, 2, 4, 7} {
		p := NewPool(w)
		got, err := Map(context.Background(), p, 16, 42, f)
		p.Close()
		if err != nil {
			t.Fatalf("Map(workers=%d): %v", w, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Map results differ between 1 and %d workers", w)
		}
	}
}

func TestMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(2)
	defer p.Close()
	_, err := Map(ctx, p, 8, 1, func(int, *rng.Rand) int { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// testJob simulates "rounds = small function of the replicate seed".
func testJob(name string, reps int) Job {
	return Job{
		Name:       name,
		Seed:       99,
		Replicates: reps,
		MaxRounds:  1000,
		New: func(seed uint64) Run {
			return func() Record {
				r := rng.New(seed)
				rounds := 1 + r.Intn(100)
				return Record{Rounds: rounds, Success: rounds%2 == 0, Value: r.Float64()}
			}
		},
	}
}

func TestRunFillsAndOrdersRecords(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	job := testJob("cell", 10)
	var sunk []Record
	recs, err := p.Run(context.Background(), job, RunOpts{
		Sink: func(rec Record) error { sunk = append(sunk, rec); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := RepSeeds(job.Seed, job.Replicates)
	for i, rec := range recs {
		if rec.Job != "cell" || rec.Rep != i || rec.Seed != seeds[i] {
			t.Fatalf("record %d not normalized: %+v", i, rec)
		}
	}
	if !reflect.DeepEqual(sunk, recs) {
		t.Fatal("sink did not receive all records in replicate order")
	}
	// Determinism across reruns and worker counts.
	p2 := NewPool(1)
	defer p2.Close()
	again, err := p2.Run(context.Background(), job, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, recs) {
		t.Fatal("Run not deterministic across worker counts")
	}
}

func TestRunResume(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	job := testJob("cell", 12)
	full, err := p.Run(context.Background(), job, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var sunk []Record
	resumed, err := p.Run(context.Background(), job, RunOpts{
		Done: full[:5],
		Sink: func(rec Record) error { sunk = append(sunk, rec); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatal("resumed records differ from a fresh run")
	}
	if !reflect.DeepEqual(sunk, full[5:]) {
		t.Fatalf("sink must receive only the missing replicates, got %d records", len(sunk))
	}
}

func TestRunResumeRejectsForeignSeeds(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	job := testJob("cell", 4)
	seeds := RepSeeds(job.Seed, job.Replicates)
	for _, done := range [][]Record{
		{{Job: "cell", Rep: 0, Seed: 12345}},                              // foreign seed
		{{Job: "cell", Rep: 1, Seed: seeds[1]}},                           // not rep 0
		make([]Record, job.Replicates+1),                                  // longer than the job
		{{Job: "cell", Rep: 0, Seed: seeds[0]}, {Rep: 2, Seed: seeds[2]}}, // a gap
	} {
		if _, err := p.Run(context.Background(), job, RunOpts{Done: done}); err == nil {
			t.Fatalf("Run accepted the resume prefix %+v", done)
		}
	}
}

func TestRunSinkError(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	boom := errors.New("disk full")
	calls := 0
	_, err := p.Run(context.Background(), testJob("cell", 8), RunOpts{
		Sink: func(Record) error { calls++; return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	// The failed record may be partially written by the sink; it must not
	// be retried while the in-flight replicates drain.
	if calls != 1 {
		t.Fatalf("sink called %d times after failing, want 1", calls)
	}
}

func TestRunValidation(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if _, err := p.Run(context.Background(), Job{Name: "x", Replicates: 0, New: testJob("x", 1).New}, RunOpts{}); err == nil {
		t.Error("Run accepted Replicates = 0")
	}
	if _, err := p.Run(context.Background(), Job{Name: "x", Replicates: 1}, RunOpts{}); err == nil {
		t.Error("Run accepted a nil factory")
	}
}

func TestAggregate(t *testing.T) {
	recs := []Record{
		{Rounds: 10, Success: true},
		{Rounds: 20, Success: true},
		{Rounds: 30, Success: false},
		{Rounds: 40, Success: true},
	}
	a := Aggregate(recs)
	if a.N != 4 || a.Wins != 3 {
		t.Fatalf("Agg = %+v", a)
	}
	if got := a.SuccessRate(); got != 0.75 {
		t.Errorf("SuccessRate = %g", got)
	}
	sum := a.Rounds()
	if sum.Mean != 25 || sum.Min != 10 || sum.Max != 40 {
		t.Errorf("Rounds summary = %+v", sum)
	}
	lo, hi := a.Wilson(1.96)
	if !(0 <= lo && lo <= 0.75 && 0.75 <= hi && hi <= 1) {
		t.Errorf("Wilson = [%g, %g]", lo, hi)
	}
	qs := a.RoundsQuantiles(0, 0.5, 1)
	if qs[0] != 10 || math.Abs(qs[1]-25) > 1e-9 || qs[2] != 40 {
		t.Errorf("RoundsQuantiles = %v", qs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{Job: "a", Rep: 0, Seed: 1, Rounds: 5, Success: true, Value: 0.5},
		{Job: "a", Rep: 1, Seed: 2, Rounds: 7, Success: false},
		{Job: "b", Rep: 0, Seed: 3, Rounds: 9, Success: true},
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := AppendRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, recs)
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	_, err := ReadRecords(bytes.NewReader([]byte("{\"rep\":0}\nnot json\n")))
	if err == nil {
		t.Fatal("ReadRecords accepted a malformed line")
	}
}

func TestSharedPoolReuse(t *testing.T) {
	if Shared(2) != Shared(2) {
		t.Error("Shared(2) must return one pool")
	}
	if Shared(0).Workers() < 1 {
		t.Error("Shared(0) must default to GOMAXPROCS")
	}
}
