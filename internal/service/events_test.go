package service_test

// Black-box tests of GET /v1/events: the SSE delivery contract. Two
// concurrent clients observe identical, globally ordered event
// sequences; a client that stops reading is dropped without ever
// delaying job execution; disconnecting clients leak nothing; and a
// drain ends every stream with a terminal "shutdown" event.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"plurality/internal/service"
)

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    string
	event string
	ev    service.Event
}

// sseConnect opens an SSE stream and feeds parsed frames to the
// returned channel until the stream ends (server shutdown, drop, or ctx
// cancellation); then the channel closes.
func sseConnect(t *testing.T, ctx context.Context, ts *httptest.Server) <-chan sseFrame {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("GET /v1/events: Content-Type %q", ct)
	}
	ch := make(chan sseFrame, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var f sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if f.event != "" {
					ch <- f
				}
				f = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.ev); err != nil {
					t.Errorf("bad SSE data line %q: %v", line, err)
				}
			}
		}
	}()
	return ch
}

// nextFrame reads one frame with a deadline. ok is false once the
// stream has ended.
func nextFrame(t *testing.T, ch <-chan sseFrame, what string) (sseFrame, bool) {
	t.Helper()
	select {
	case f, ok := <-ch:
		return f, ok
	case <-time.After(15 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return sseFrame{}, false
	}
}

// collectAll drains the stream to its end and returns every frame.
func collectAll(t *testing.T, ch <-chan sseFrame, what string) []sseFrame {
	t.Helper()
	var out []sseFrame
	for {
		f, ok := nextFrame(t, ch, what)
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// TestEventsTwoClientsIdenticalOrder is the ordering half of the SSE
// contract: two clients subscribed before any traffic observe the
// exact same broadcast sequence — same events, same values, same
// global order — ending in the same terminal shutdown event.
func TestEventsTwoClientsIdenticalOrder(t *testing.T) {
	s, ts := boot(t, service.Options{Workers: 2, Executors: 2, Backlog: 8})
	defer func() { ts.Close(); s.Close() }()

	ctx := context.Background()
	chA := sseConnect(t, ctx, ts)
	chB := sseConnect(t, ctx, ts)
	for name, ch := range map[string]<-chan sseFrame{"A": chA, "B": chB} {
		hello, ok := nextFrame(t, ch, "hello for "+name)
		if !ok || hello.event != "hello" {
			t.Fatalf("client %s: first frame %+v, want hello", name, hello)
		}
		if hello.ev.Seq != 0 {
			t.Fatalf("client %s: hello has Seq %d, want 0 (snapshots are outside the broadcast order)", name, hello.ev.Seq)
		}
	}

	var ids []string
	for i := 0; i < 3; i++ {
		spec := service.JobSpec{N: 100_000, K: 4, Seed: uint64(40 + i), Replicates: 4, MaxRounds: 2000}
		status, info, raw := submit(t, ts, spec, "?wait=0")
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, status, raw)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		waitJob(t, ts, id, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	seqA := collectAll(t, chA, "stream A to end")
	seqB := collectAll(t, chB, "stream B to end")
	if len(seqA) == 0 || len(seqA) != len(seqB) {
		t.Fatalf("clients saw %d and %d events — sequences must be non-empty and identical", len(seqA), len(seqB))
	}
	for i := range seqA {
		a, b := seqA[i], seqB[i]
		ja, _ := json.Marshal(a.ev)
		jb, _ := json.Marshal(b.ev)
		if a.event != b.event || a.id != b.id || string(ja) != string(jb) {
			t.Fatalf("event %d differs between clients:\n A: %s %s %s\n B: %s %s %s",
				i, a.event, a.id, ja, b.event, b.id, jb)
		}
	}
	last := int64(0)
	for i, f := range seqA {
		if f.ev.Seq <= last {
			t.Fatalf("event %d: Seq %d not strictly increasing after %d", i, f.ev.Seq, last)
		}
		last = f.ev.Seq
		if f.id != fmt.Sprint(f.ev.Seq) {
			t.Fatalf("event %d: SSE id %q != payload seq %d", i, f.id, f.ev.Seq)
		}
	}
	if final := seqA[len(seqA)-1]; final.event != "shutdown" {
		t.Fatalf("final event is %q, want shutdown", final.event)
	}
	// Every job's lifecycle must appear: at least one running and one
	// done snapshot per job, and progress events carrying its id.
	for _, id := range ids {
		sawDone, sawProgress := false, false
		for _, f := range seqA {
			if f.event == "job" && f.ev.Job != nil && f.ev.Job.ID == id && f.ev.Job.State == service.StateDone {
				sawDone = true
			}
			if f.event == "progress" && f.ev.ID == id {
				sawProgress = true
			}
		}
		if !sawDone || !sawProgress {
			t.Fatalf("job %s: done snapshot seen %v, progress seen %v — want both", id, sawDone, sawProgress)
		}
	}
}

// TestEventsSubscribeAfterShutdown: a client that connects once the hub
// has shut down still gets an orderly terminal frame, not a cut stream.
func TestEventsSubscribeAfterShutdown(t *testing.T) {
	s, ts := boot(t, service.Options{Workers: 1})
	defer func() { ts.Close(); s.Close() }()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	frames := collectAll(t, sseConnect(t, context.Background(), ts), "post-shutdown stream")
	if len(frames) != 1 || frames[0].event != "shutdown" {
		t.Fatalf("post-shutdown client got %+v, want exactly one shutdown frame", frames)
	}
}

// TestEventsClientDisconnectNoLeak: clients that come and go leave no
// goroutines and no subscriber-gauge residue behind.
func TestEventsClientDisconnectNoLeak(t *testing.T) {
	s, ts := boot(t, service.Options{Workers: 1})
	defer func() { ts.Close(); s.Close() }()

	// Warm up the HTTP plumbing (transport pools, scanner buffers) so the
	// baseline is stable before measuring.
	warmCtx, warmCancel := context.WithCancel(context.Background())
	warm := sseConnect(t, warmCtx, ts)
	nextFrame(t, warm, "warmup hello")
	warmCancel()
	collectAll(t, warm, "warmup stream end")
	waitForZeroClients(t, ts)
	base := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var chans []<-chan sseFrame
		for i := 0; i < 8; i++ {
			ch := sseConnect(t, ctx, ts)
			nextFrame(t, ch, "hello")
			chans = append(chans, ch)
		}
		cancel()
		for _, ch := range chans {
			collectAll(t, ch, "stream end after disconnect")
		}
	}
	waitForZeroClients(t, ts)

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finalizer-held conns
		n := runtime.NumGoroutine()
		if n <= base+2 { // tolerate transient runtime/net goroutines
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after disconnects, baseline %d — SSE handlers leaked", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitForZeroClients polls the sse_clients gauge until the hub reports
// no subscribers.
func waitForZeroClients(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		fams := scrapeMetrics(t, ts)
		if v := famValue(t, fams, "pluralityd_sse_clients", nil); v == 0 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("sse_clients gauge stuck at %v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventsSlowConsumerDropped is the backpressure half of the SSE
// contract, end to end: a client that stops reading its socket is
// dropped (counted in sse_dropped_total) while job execution and a
// healthy client proceed undisturbed. The deterministic unit-level
// version of the drop rule lives in the package's hub tests; this test
// proves the property through real sockets.
func TestEventsSlowConsumerDropped(t *testing.T) {
	// EventBuffer must be small enough that a stalled socket overflows it
	// quickly, but big enough that a draining client rides out bursts.
	s, ts := boot(t, service.Options{Workers: 2, EventBuffer: 256})
	defer func() { ts.Close(); s.Close() }()

	healthyCtx, healthyCancel := context.WithCancel(context.Background())
	defer healthyCancel()
	healthy := sseConnect(t, healthyCtx, ts)
	nextFrame(t, healthy, "healthy hello")

	// The stalled client: a raw socket with a tiny receive buffer that
	// sends the request and then never reads, so the server-side write
	// eventually blocks, its 1-slot buffer fills, and the hub drops it.
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(256) // shrink the advertised window
	}
	if _, err := fmt.Fprintf(conn, "GET /v1/events HTTP/1.1\r\nHost: %s\r\n\r\n", u.Host); err != nil {
		t.Fatal(err)
	}

	// Each job publishes 67 events (3 job snapshots, 64 progress events).
	// The healthy client reads its stream up to each job's done snapshot
	// before the next submit, so it never lags by more than one job, well
	// inside EventBuffer: only the hub's slow-consumer rule could remove
	// it, and only the stalled client overflows.
	spec := service.JobSpec{N: 100_000, K: 8, Seed: 9, Replicates: 64, MaxRounds: 2000}
	deadline := time.Now().Add(30 * time.Second)
	dropped := false
	for i := 0; !dropped; i++ {
		start := time.Now()
		status, info, raw := submit(t, ts, spec, "?wait=1")
		if status != http.StatusOK || info.State != service.StateDone {
			t.Fatalf("job %d: status %d state %s (%s) — a stalled subscriber delayed execution", i, status, info.State, raw)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("job %d took %s with a stalled subscriber attached", i, d)
		}
		for {
			f, ok := nextFrame(t, healthy, "the healthy client's done snapshot")
			if !ok {
				t.Fatalf("job %d: the healthy client's stream ended", i)
			}
			if f.event == "job" && f.ev.Job != nil && f.ev.Job.ID == info.ID && f.ev.Job.State == service.StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d: no done snapshot on the healthy stream by the deadline", i)
			}
		}
		fams := scrapeMetrics(t, ts)
		dropped = famValue(t, fams, "pluralityd_sse_dropped_total", nil) >= 1
		if time.Now().After(deadline) {
			t.Fatalf("stalled client never dropped after %d jobs", i+1)
		}
		spec.Seed++
	}

	// The healthy client must still be subscribed: the drop hit only the
	// stalled consumer.
	fams := scrapeMetrics(t, ts)
	if v := famValue(t, fams, "pluralityd_sse_clients", nil); v < 1 {
		t.Fatalf("sse_clients = %v after the drop, want the healthy client still connected", v)
	}
}

// TestEventsDeleteBroadcast: deleting a job emits a deleted event so
// dashboards converge without polling.
func TestEventsDeleteBroadcast(t *testing.T) {
	s, ts := boot(t, service.Options{Workers: 1})
	defer func() { ts.Close(); s.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := sseConnect(t, ctx, ts)
	nextFrame(t, ch, "hello")

	spec := service.JobSpec{N: 100_000, K: 4, Seed: 77, Replicates: 2, MaxRounds: 2000}
	status, info, raw := submit(t, ts, spec, "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	for {
		f, ok := nextFrame(t, ch, "deleted event")
		if !ok {
			t.Fatal("stream ended before the deleted event")
		}
		if f.event == "deleted" {
			if f.ev.ID != info.ID {
				t.Fatalf("deleted event names %q, want %q", f.ev.ID, info.ID)
			}
			return
		}
	}
}
