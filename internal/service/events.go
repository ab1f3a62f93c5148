package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"plurality/internal/mc"
)

// The SSE broadcast hub behind GET /v1/events: job lifecycle events and
// throttled per-job progress, live-streamed to any number of clients.
//
// Delivery contract:
//
//   - every broadcast event carries a globally ordered sequence number,
//     assigned under the hub lock, so two concurrent clients observe
//     identical ordered event sequences (modulo where each joined);
//   - each client has a bounded send buffer; a client that stops
//     draining it is dropped — its channel is closed and the drop is
//     counted in pluralityd_sse_dropped_total — instead of ever
//     blocking the serving path (publish never waits on a client);
//   - on drain/shutdown every client receives a terminal "shutdown"
//     event and its stream ends cleanly.
//
// The dashboard served at GET / renders entirely off this stream.

// Event is one SSE payload (the data: line, JSON-encoded). Type is one
// of:
//
//	hello     initial snapshot sent to a new subscriber (Jobs, Backlog)
//	job       a job changed lifecycle state (Job holds the snapshot)
//	progress  a running job completed replicates (throttled; Done/Total)
//	round     sampled round-level progress of a traced job's replicate 0
//	          (throttled; Round/Bias/CMax — see trace.go)
//	deleted   a job was deleted (ID)
//	shutdown  the server is draining; the stream ends after this event
type Event struct {
	// Seq is the global broadcast sequence number. The hello snapshot is
	// Seq 0: it is per-subscriber, not part of the broadcast order.
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	// Job rides on "job" events: the same snapshot the status API serves.
	Job *JobInfo `json:"job,omitempty"`
	// Jobs rides on the "hello" snapshot.
	Jobs []JobInfo `json:"jobs,omitempty"`
	// ID names the job on "progress" and "deleted" events.
	ID string `json:"id,omitempty"`
	// Done/Total are the replicates completed so far (resumed prefix
	// included) and the job's replicate count, on "progress" events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Rounds is the round count of the replicate that triggered this
	// progress event (throughput numerator for rounds/sec).
	Rounds int `json:"rounds,omitempty"`
	// Round/Bias/CMax ride on "round" events: the completed round number
	// and convergence state of a traced job's replicate 0.
	Round int   `json:"round,omitempty"`
	Bias  int64 `json:"bias,omitempty"`
	CMax  int64 `json:"c_max,omitempty"`
	// Engine/Rule label progress events for per-engine throughput.
	Engine string `json:"engine,omitempty"`
	Rule   string `json:"rule,omitempty"`
	// Backlog is the async queue depth at publish time.
	Backlog int `json:"backlog"`
}

// subscriber is one connected client: a buffered channel of
// pre-rendered SSE frames.
type subscriber struct {
	ch chan []byte
}

// hub fans broadcast events out to the subscribers.
type hub struct {
	met    *serverMetrics
	buffer int

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	seq    int64
	closed bool
}

func newHub(buffer int, met *serverMetrics) *hub {
	return &hub{met: met, buffer: buffer, subs: map[*subscriber]struct{}{}}
}

// frame renders one SSE frame. The id: field carries the sequence
// number so a reconnecting client can detect the gap.
func frame(ev Event) []byte {
	data, err := json.Marshal(ev)
	if err != nil {
		// Event is a plain struct of encodable fields; this cannot fail.
		panic(fmt.Sprintf("service: encoding SSE event: %v", err))
	}
	return []byte(fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data))
}

// subscribe registers a new client. It returns nil once the hub has
// shut down (the caller then emits the terminal shutdown frame itself).
func (h *hub) subscribe() *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &subscriber{ch: make(chan []byte, h.buffer)}
	h.subs[sub] = struct{}{}
	return sub
}

// unsubscribe removes a client (no-op if the hub already dropped it).
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
}

// clients reports the current subscriber count (a scrape-time gauge).
func (h *hub) clients() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// publish assigns the next sequence number, counts the event, and offers
// it to every subscriber without ever blocking: a subscriber whose buffer
// is full is dropped on the spot (channel closed, so its handler ends the
// response after writing what it already has). The event comes from
// build, which runs only when a subscriber is connected, under the hub
// lock: with nobody listening nothing is built or rendered, and a client
// that subscribes concurrently receives the whole event or none of it.
func (h *hub) publish(build func() Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	h.met.sseEvent()
	if len(h.subs) == 0 {
		return
	}
	ev := build()
	ev.Seq = h.seq
	b := frame(ev)
	for sub := range h.subs {
		select {
		case sub.ch <- b:
		default:
			delete(h.subs, sub)
			close(sub.ch)
			h.met.sseDrop()
		}
	}
}

// shutdown broadcasts the terminal shutdown event and closes every
// subscriber channel; a buffered subscriber receives its queued frames
// and then the shutdown frame before its stream ends. Idempotent.
func (h *hub) shutdown() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.seq++
	b := frame(Event{Seq: h.seq, Type: "shutdown"})
	h.met.sseEvent()
	for sub := range h.subs {
		select {
		case sub.ch <- b:
		default:
			// A full buffer loses the marker; the closed channel still ends
			// the stream.
			h.met.sseDrop()
		}
		close(sub.ch)
		delete(h.subs, sub)
	}
}

// publishJob broadcasts a job's current lifecycle snapshot.
func (s *Server) publishJob(j *jobState) {
	s.hub.publish(func() Event {
		info := j.info()
		return Event{Type: "job", Job: &info, Backlog: s.queue.Backlog()}
	})
}

// progressStride is the throttle for per-job progress events: at most
// ~64 progress events per job (plus the final one), so a 100k-replicate
// job cannot flood the stream.
func progressStride(total int) int {
	stride := total / 64
	if stride < 1 {
		stride = 1
	}
	return stride
}

// jobProgress builds the mc.RunOpts.OnProgress hook for one job: every
// newly executed replicate feeds the throughput counters; every
// stride-th (and the final) replicate additionally broadcasts a
// progress event.
func (s *Server) jobProgress(j *jobState) func(rec mc.Record, done, total int) {
	stride := progressStride(j.spec.Replicates)
	return func(rec mc.Record, done, total int) {
		s.met.replicateDone(j.engLabel, j.ruleLabel, rec.Rounds)
		if done%stride == 0 || done == total {
			s.hub.publish(func() Event {
				return Event{
					Type:    "progress",
					ID:      j.id,
					Done:    done,
					Total:   total,
					Rounds:  rec.Rounds,
					Engine:  j.engLabel,
					Rule:    j.ruleLabel,
					Backlog: s.queue.Backlog(),
				}
			})
		}
	}
}

// handleEvents serves GET /v1/events: an SSE stream of the hub's
// broadcast, prefixed by a per-subscriber hello snapshot of the current
// job table. The stream ends when the client goes away, when the
// subscriber is dropped for not keeping up, or — via the shutdown
// event — when the server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub := s.hub.subscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if sub == nil {
		// Hub already shut down (drain raced the subscription): emit the
		// terminal marker so the client sees an orderly end, not a cut.
		_, _ = w.Write(frame(Event{Type: "shutdown"}))
		fl.Flush()
		return
	}
	defer s.hub.unsubscribe(sub)
	// The snapshot is rendered after subscribing, so no transition can
	// fall between snapshot and stream; an event may appear in both,
	// which consumers absorb because job events carry full snapshots.
	_, _ = w.Write(frame(Event{Type: "hello", Jobs: s.store.list(), Backlog: s.queue.Backlog()}))
	fl.Flush()
	for {
		select {
		case b, ok := <-sub.ch:
			if !ok {
				return // dropped as a slow consumer, or hub shutdown
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
