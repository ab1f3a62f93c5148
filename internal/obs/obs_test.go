package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"plurality/internal/colorcfg"
)

func TestRecorderStats(t *testing.T) {
	r := &Recorder{MemEvery: -1}
	cfg := colorcfg.Config{3, 10, 7, 0}
	r.ObserveRound(1, 25, 500, cfg)
	if r.Summarize().Rounds != 1 || r.Len() != 1 {
		t.Fatalf("Rounds=%d Len=%d, want 1,1", r.Summarize().Rounds, r.Len())
	}
	st := r.At(0)
	if st.Round != 1 || st.WallNs != 500 {
		t.Errorf("round/wall = %d/%d, want 1/500", st.Round, st.WallNs)
	}
	if st.NsPerAgent != 20 {
		t.Errorf("NsPerAgent = %v, want 20", st.NsPerAgent)
	}
	if st.CMax != 10 || st.CSecond != 7 || st.Bias != 3 || st.Plurality != 1 {
		t.Errorf("cmax/csecond/bias/plur = %d/%d/%d/%d, want 10/7/3/1", st.CMax, st.CSecond, st.Bias, st.Plurality)
	}
	// n=25 includes 5 agents outside the colored counts (e.g. undecided);
	// minority mass is measured against the full population.
	if st.MinorityMass != 15 {
		t.Errorf("MinorityMass = %d, want 15", st.MinorityMass)
	}
	if st.Support != 3 {
		t.Errorf("Support = %d, want 3", st.Support)
	}
	if st.HeapAlloc != 0 {
		t.Errorf("HeapAlloc sampled with MemEvery<0")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := &Recorder{Cap: 4, MemEvery: -1}
	cfg := colorcfg.Config{5, 5}
	for round := 1; round <= 10; round++ {
		r.ObserveRound(round, 10, int64(round), cfg)
	}
	if r.Summarize().Rounds != 10 || r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("Rounds/Len/Dropped = %d/%d/%d, want 10/4/6", r.Summarize().Rounds, r.Len(), r.Dropped())
	}
	got := r.Rounds(nil)
	for i, st := range got {
		if want := 7 + i; st.Round != want {
			t.Errorf("retained[%d].Round = %d, want %d", i, st.Round, want)
		}
	}
	s := r.Summarize()
	if s.Rounds != 10 || s.Retained != 4 || s.Dropped != 6 || s.WallNs != 55 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRecorderMemSampling(t *testing.T) {
	r := &Recorder{MemEvery: 3}
	cfg := colorcfg.Config{1, 2}
	for round := 1; round <= 7; round++ {
		r.ObserveRound(round, 3, 1, cfg)
	}
	// Rounds 1, 4, 7 (total counter 0, 3, 6) carry samples.
	for i, want := range []bool{true, false, false, true, false, false, true} {
		if got := r.At(i).HeapAlloc != 0; got != want {
			t.Errorf("round %d sampled = %v, want %v", i+1, got, want)
		}
	}
	if r.Summarize().HeapMax == 0 {
		t.Errorf("HeapMax = 0 after sampling")
	}
}

// TestRecorderSteadyStateAllocs pins the observer-attached hot path: after
// the first round allocates the ring, ObserveRound must be alloc-free even
// on rounds that sample ReadMemStats.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := &Recorder{Cap: 64, MemEvery: 1}
	cfg := make(colorcfg.Config, 32)
	for i := range cfg {
		cfg[i] = int64(i)
	}
	r.ObserveRound(1, 1000, 123, cfg)
	round := 1
	avg := testing.AllocsPerRun(100, func() {
		round++
		r.ObserveRound(round, 1000, 123, cfg)
	})
	if avg != 0 {
		t.Errorf("ObserveRound allocates %.1f allocs/op in steady state, want 0", avg)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for rep := 0; rep < 2; rep++ {
		r := &Recorder{MemEvery: -1}
		cfg := colorcfg.Config{int64(90 + rep), 10}
		for round := 1; round <= 3; round++ {
			r.ObserveRound(round, 100, int64(100*round), cfg)
		}
		h := Header{Engine: "multinomial", Rule: "3majority", N: 100, K: 2, Seed: uint64(7 + rep), Job: "j", Rep: rep}
		if err := r.WriteTrace(&buf, h); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
	}
	traces, skipped, err := ReadTraces(bytes.NewReader(buf.Bytes()))
	if err != nil || skipped != 0 {
		t.Fatalf("ReadTraces err=%v skipped=%d", err, skipped)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	for rep, tr := range traces {
		if tr.Header.Rep != rep || tr.Header.Seed != uint64(7+rep) || tr.Header.Engine != "multinomial" {
			t.Errorf("trace %d header = %+v", rep, tr.Header)
		}
		if len(tr.Rounds) != 3 {
			t.Fatalf("trace %d: %d rounds, want 3", rep, len(tr.Rounds))
		}
		if tr.Rounds[2].CMax != int64(90+rep) || tr.Rounds[2].WallNs != 300 {
			t.Errorf("trace %d round 3 = %+v", rep, tr.Rounds[2])
		}
		if tr.Summary == nil || tr.Summary.Rounds != 3 || tr.Summary.WallNs != 600 {
			t.Errorf("trace %d summary = %+v", rep, tr.Summary)
		}
	}
}

func TestReadTracesTolerant(t *testing.T) {
	in := strings.Join([]string{
		`{"type":"round","round":1,"wall_ns":5}`, // round before any header: implicit run
		`not json at all`,
		`{"type":"run","engine":"e","n":10,"k":2}`,
		`{"type":"round","round":1,"wall_ns":7}`,
		`{"type":"mystery","round":2}`,
		`{"type":"round","round":"oops"}`, // wrong field type
		`{"type":"summary","rounds":1,"wall_ns":7}`,
		`{"type":"round","wall_ns`, // torn tail
	}, "\n")
	traces, skipped, err := ReadTraces(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadTraces: %v", err)
	}
	if skipped != 4 {
		t.Errorf("skipped = %d, want 4", skipped)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if len(traces[0].Rounds) != 1 || traces[0].Header.N != 0 {
		t.Errorf("implicit run = %+v", traces[0])
	}
	if traces[1].Header.Engine != "e" || len(traces[1].Rounds) != 1 || traces[1].Summary == nil {
		t.Errorf("second run = %+v", traces[1])
	}
}

func TestReadTracesOverlongLine(t *testing.T) {
	in := `{"type":"run","engine":"e","n":1,"k":1}` + "\n" +
		`{"type":"round","round":1,"rule":"` + strings.Repeat("x", maxTraceLine+10) + `"}`
	traces, skipped, err := ReadTraces(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadTraces: %v", err)
	}
	if len(traces) != 1 || skipped != 1 {
		t.Errorf("traces=%d skipped=%d, want 1,1", len(traces), skipped)
	}
}

func TestTracerConcurrent(t *testing.T) {
	// Recorders are compared by identity, not observed into: each one
	// allocates its DefaultCap ring on the first ObserveRound.
	tr := &Tracer{}
	got := make([]*Recorder, 400)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < 50; s++ {
				seed := uint64(g*50 + s)
				got[seed] = tr.Recorder(seed)
				if tr.Recorder(seed) != got[seed] {
					t.Errorf("Recorder(%d) handed out two recorders", seed)
				}
			}
		}(g)
	}
	wg.Wait()
	for seed := uint64(0); seed < 400; seed++ {
		if rec := tr.Take(seed); rec == nil || rec != got[seed] {
			t.Fatalf("Take(%d) = %p, want %p", seed, rec, got[seed])
		}
		if tr.Take(seed) != nil {
			t.Fatalf("Take(%d) twice returned a recorder", seed)
		}
	}
	if tr.Take(99999) != nil {
		t.Errorf("Take of unknown seed should be nil")
	}
}

func TestBegan(t *testing.T) {
	if !Began(nil).IsZero() {
		t.Errorf("Began(nil) should be the zero time")
	}
	if Began(&Recorder{}).IsZero() {
		t.Errorf("Began(observer) should read the clock")
	}
}
