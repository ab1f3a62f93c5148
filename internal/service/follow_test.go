package service_test

// Regression test for ?follow=1 client disconnects: a follower that
// goes away mid-stream must release its handler goroutine promptly
// (the cond-wait is woken by context cancellation, not the next
// record), and the job's record stream must stay fully intact for
// later readers.

import (
	"bufio"
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"plurality/internal/mc"
	"plurality/internal/service"
)

func TestFollowClientDisconnectNoLeak(t *testing.T) {
	s, ts := boot(t, service.Options{Workers: 2})
	defer func() { ts.Close(); s.Close() }()

	// A job that produces records steadily but never finishes within the
	// test: each replicate burns its 20-round budget on a balanced
	// population.
	spec := service.JobSpec{Rule: "3majority", Engine: "sampled", N: 50_000, K: 2,
		Bias: "0", Seed: 11, Replicates: service.MaxReplicates, MaxRounds: 20}
	status, info, raw := submit(t, ts, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	waitJob(t, ts, info.ID, ">=2 records", func(i service.JobInfo) bool { return i.Records >= 2 })

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 4; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/jobs/"+info.ID+"/records?follow=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Prove the stream is live (at least one record arrives), then
		// abandon it mid-flight.
		if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
			t.Fatalf("follower %d: reading first record: %v", i, err)
		}
		defer resp.Body.Close()
	}
	cancel()

	// Every follower handler must unwind even though the job keeps
	// appending records only every few milliseconds — the disconnect
	// itself wakes the cond-wait.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d long after follower disconnects, baseline %d — follow handlers leaked", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The record stream is intact: the job kept running through the
	// disconnects, and a fresh snapshot is well-formed, contiguous JSONL.
	after := waitJob(t, ts, info.ID, "more records", func(i service.JobInfo) bool { return i.Records >= 4 })
	rawRecs := recordBytes(t, ts, info.ID)
	recs, _ := mc.ScanLines[mc.Record](rawRecs)
	if len(recs) < 4 {
		t.Fatalf("snapshot has %d records, want >= 4 (job reported %d)", len(recs), after.Records)
	}
	for i, rec := range recs {
		if rec.Rep != i {
			t.Fatalf("record %d has rep %d — stream corrupted by follower disconnects", i, rec.Rep)
		}
	}

	// Cleanup: stop the never-ending job so Close doesn't wait on it.
	resp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJob(t, ts, info.ID, "cancelled", func(i service.JobInfo) bool { return i.State.Terminal() })
}
