package service

// White-box hub tests: the slow-consumer drop rule and the frame
// encoding, deterministically — no sockets, no timing. The end-to-end
// versions (real connections, real backpressure) live in
// events_test.go.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"plurality/internal/mc"
)

// jobEvent builds the bare job event the hub tests publish.
func jobEvent() Event { return Event{Type: "job"} }

// hubSeq reads the hub's last assigned sequence number.
func hubSeq(h *hub) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// recv asserts a frame is immediately available and returns it.
func recv(t *testing.T, sub *subscriber, what string) string {
	t.Helper()
	select {
	case b, ok := <-sub.ch:
		if !ok {
			t.Fatalf("%s: channel closed", what)
		}
		return string(b)
	default:
		t.Fatalf("%s: no frame buffered", what)
		return ""
	}
}

func TestHubDropsSlowSubscriberWithoutBlocking(t *testing.T) {
	met := newServerMetrics()
	h := newHub(1, met)
	slow := h.subscribe()
	fast := h.subscribe()
	if n := h.clients(); n != 2 {
		t.Fatalf("clients = %d, want 2", n)
	}

	// First publish fits both 1-slot buffers.
	h.publish(jobEvent)
	recv(t, fast, "fast first frame")

	// Second publish: fast has room (drained), slow is full — the hub
	// must drop slow on the spot and never block. Guard with a timeout so
	// a blocking regression fails fast instead of hanging the suite.
	done := make(chan struct{})
	go func() { h.publish(jobEvent); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber buffer")
	}
	recv(t, fast, "fast second frame")

	if n := h.clients(); n != 1 {
		t.Fatalf("clients = %d after drop, want 1 (only fast)", n)
	}
	// Slow's channel: one buffered frame (the first), then closed — the
	// handler flushes what it has and ends the response.
	recv(t, slow, "slow buffered frame")
	if _, ok := <-slow.ch; ok {
		t.Fatal("slow subscriber channel not closed after drop")
	}
	met.mu.Lock()
	droppedTotal, eventsTotal := met.sseDropped, met.sseEvents
	met.mu.Unlock()
	if droppedTotal != 1 {
		t.Fatalf("sseDropped = %d, want 1", droppedTotal)
	}
	if eventsTotal != 2 {
		t.Fatalf("sseEvents = %d, want 2", eventsTotal)
	}
}

func TestHubShutdownDeliversTerminalFrame(t *testing.T) {
	h := newHub(4, newServerMetrics())
	sub := h.subscribe()
	h.publish(jobEvent)
	h.shutdown()
	h.shutdown() // idempotent

	if got := recv(t, sub, "queued frame"); !strings.Contains(got, `"type":"job"`) {
		t.Fatalf("first frame %q, want the queued job event", got)
	}
	if got := recv(t, sub, "shutdown frame"); !strings.Contains(got, `"type":"shutdown"`) {
		t.Fatalf("second frame %q, want the shutdown event", got)
	}
	if _, ok := <-sub.ch; ok {
		t.Fatal("channel not closed after shutdown")
	}
	if h.subscribe() != nil {
		t.Fatal("subscribe after shutdown must return nil")
	}
	// Publishing into a closed hub is a silent no-op.
	h.publish(jobEvent)
}

func TestFrameFormat(t *testing.T) {
	got := string(frame(Event{Seq: 7, Type: "progress", ID: "j1", Done: 3, Total: 12, Backlog: 2}))
	if !strings.HasPrefix(got, "id: 7\nevent: progress\ndata: {") {
		t.Fatalf("frame = %q, want id/event/data lines", got)
	}
	if !strings.HasSuffix(got, "}\n\n") {
		t.Fatalf("frame = %q, want a blank-line terminator", got)
	}
	if strings.Count(got, "\n\n") != 1 {
		t.Fatalf("frame = %q must contain exactly one blank line (the terminator)", got)
	}
}

func TestProgressStride(t *testing.T) {
	cases := []struct{ total, want int }{
		{1, 1}, {5, 1}, {64, 1}, {65, 1}, {128, 2}, {6400, 100}, {100_000, 1562},
	}
	for _, tc := range cases {
		if got := progressStride(tc.total); got != tc.want {
			t.Errorf("progressStride(%d) = %d, want %d", tc.total, got, tc.want)
		}
	}
}

// TestPublishWithoutSubscriberAllocatesNothing: with no /v1/events client
// connected, publishing a finished job's snapshot (which would run
// mc.Aggregate) and a progress event builds and renders nothing, yet each
// publish still takes the next sequence number and counts as an event.
func TestPublishWithoutSubscriberAllocatesNothing(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	status, info, raw := postJob(t, ts, smallSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	j, ok := s.store.get(info.ID)
	if !ok {
		t.Fatalf("job %s not in the store", info.ID)
	}
	progress := s.jobProgress(j)
	seq0 := hubSeq(s.hub)
	s.met.mu.Lock()
	events0 := s.met.sseEvents
	s.met.mu.Unlock()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		s.publishJob(j)
		progress(mc.Record{Rounds: 7}, info.Spec.Replicates, info.Spec.Replicates)
	})
	if allocs != 0 {
		t.Errorf("publishing with no subscriber: %v allocs per run, want 0", allocs)
	}
	// AllocsPerRun runs the function once more as a warm-up.
	const published = 2 * (runs + 1)
	if got := hubSeq(s.hub) - seq0; got != published {
		t.Errorf("sequence moved by %d, want %d", got, published)
	}
	s.met.mu.Lock()
	events := s.met.sseEvents - events0
	s.met.mu.Unlock()
	if events != published {
		t.Errorf("sse events counted %d, want %d", events, published)
	}
}

// TestLateSubscriberSeesFullSnapshots: events published while nobody
// listened still consumed sequence numbers, so a subscriber that joins
// later sees ids above them, strictly increasing, and job events that
// carry the same full snapshot the status API serves.
func TestLateSubscriberSeesFullSnapshots(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	status, info, raw := postJob(t, ts, smallSpec(), "?wait=1")
	if status != http.StatusOK {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	unheard := hubSeq(s.hub)
	// submitted, running, one progress event per replicate, done.
	if want := int64(info.Spec.Replicates + 3); unheard < want {
		t.Fatalf("%d events published before anyone subscribed, want at least %d", unheard, want)
	}
	j, _ := s.store.get(info.ID)
	sub := s.hub.subscribe()
	defer s.hub.unsubscribe(sub)
	s.publishJob(j)
	s.publishJob(j)
	last := unheard
	for i := 0; i < 2; i++ {
		head, data, ok := strings.Cut(recv(t, sub, "job frame"), "data: ")
		if !ok {
			t.Fatalf("frame %d has no data line", i)
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ev.Seq <= last || !strings.HasPrefix(head, "id: "+strconv.FormatInt(ev.Seq, 10)+"\n") {
			t.Fatalf("frame %d: id line %q, seq %d, want a seq above %d", i, head, ev.Seq, last)
		}
		last = ev.Seq
		want, _ := json.Marshal(j.info())
		got, _ := json.Marshal(ev.Job)
		if ev.Type != "job" || string(got) != string(want) {
			t.Fatalf("frame %d: %s event with job %s, want the snapshot %s", i, ev.Type, got, want)
		}
	}
}
