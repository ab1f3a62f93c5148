package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/mc"
	"plurality/internal/service"
)

// daemon-submit: a closed loop of two clients, each on one keep-alive
// connection, against the pluralityd service (httptest, two pool workers,
// a journal in a fresh directory on the checkout's disk — tmpfs would
// hide the fsync cost). HTTP, the store, the journal's fsync barriers and
// the mc.Queue do most of the work. Writes (submits) and reads (records,
// follow, metrics) go through the same layer, so a gain on one that costs
// the other shows.
//
// Op i of a client is a synchronous 16-replicate job then a GET of its
// records; every 8th op is instead an asynchronous 64-replicate job whose
// records are followed to the end; every 16th op also scrapes /metrics.
//
// Set-up is a restart: the service boots on a journal that already holds
// daemonHistory finished jobs and replays them, the wait users see after a
// crash or a deploy. The history is written once per run, untimed.

const (
	daemonWorkers = 2
	daemonClients = 2
	daemonOps     = 300 // per client per pass
	daemonHistory = 500 // finished jobs in the journal at boot
	daemonN       = 1_000_000
	daemonK       = 16
	syncReps      = 16
	asyncReps     = 64
)

type daemonBench struct {
	seed    uint64
	opsPer  int
	srv     *service.Server
	ts      *httptest.Server
	clients []*http.Client
	jfs     *timedFS // nil unless tracing
	local   *mc.Pool // local re-execution of served jobs

	// Accumulated over traced passes.
	mu                                     sync.Mutex
	tracedOps                              int64
	syncMs, recordsMs, followMs, metricsMs []float64
	execShare                              []float64
}

func daemonDataDir(o opts) string { return filepath.Join(o.dir, "data") }

// populateDaemon journals the history the timed boots replay.
func populateDaemon(o opts) error {
	srv, err := service.New(service.Options{Workers: daemonWorkers, DataDir: daemonDataDir(o)})
	if err != nil {
		return err
	}
	defer srv.Close()
	b := &daemonBench{seed: o.seed}
	jobs := daemonHistory
	if o.smoke {
		jobs = 10
	}
	for i := 0; i < jobs; i++ {
		body, err := json.Marshal(b.spec(fmt.Sprintf("history/%d", i), false))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("history job %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	return nil
}

func setupDaemon(o opts) (instance, error) {
	b := &daemonBench{seed: o.seed, opsPer: daemonOps}
	if o.smoke {
		b.opsPer = 16
	}
	so := service.Options{Workers: daemonWorkers, DataDir: daemonDataDir(o)}
	if o.trace {
		b.jfs = &timedFS{FS: service.OSFS()}
		so.FS = b.jfs
	}
	var err error
	if b.srv, err = service.New(so); err != nil {
		return nil, err
	}
	b.ts = httptest.NewServer(b.srv)
	for i := 0; i < daemonClients; i++ {
		b.clients = append(b.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	b.local = mc.NewPool(daemonWorkers)
	resp, err := b.clients[0].Get(b.ts.URL + "/healthz")
	if err != nil {
		b.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return b, nil
}

func (b *daemonBench) close() {
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
	b.ts.Close()
	b.srv.Close()
	b.local.Close()
}

func (b *daemonBench) spec(name string, async bool) service.JobSpec {
	reps := syncReps
	if async {
		reps = asyncReps
	}
	s := service.JobSpec{Rule: "3majority", Engine: "multinomial", N: daemonN, K: daemonK, Replicates: reps, Seed: deriveSeed(b.seed, name)}
	s.Normalize()
	return s
}

// prepare checks the service's determinism contract on one job: the
// served records are byte-identical to a local encoding of the spec's
// mc.Job.
func (b *daemonBench) prepare() (passStats, error) {
	var st passStats
	spec := b.spec("determinism", true)
	st.ops++
	served, ok := b.asyncFollow(b.clients[0], nil, nil, spec)
	local, err := b.runLocal(spec)
	if err != nil {
		return st, err
	}
	if !ok || !bytes.Equal(served, local) {
		fmt.Fprintf(os.Stderr, "plbench: served records of %s differ from the local encoding\n", spec.Name())
		st.failed++
	}
	return st, nil
}

// runLocal executes the spec's mc.Job on the local pool and encodes its
// records exactly as the service serves them.
func (b *daemonBench) runLocal(spec service.JobSpec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	recs, err := b.local.Run(context.Background(), spec.MCJob(), mc.RunOpts{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := mc.AppendRecord(&buf, rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func (b *daemonBench) pass(tr *tracer) (passStats, error) {
	if b.jfs != nil {
		if tr != nil {
			b.jfs.cur.Store(&traceCtx{tr, tr.root})
		} else {
			b.jfs.cur.Store(nil)
		}
	}
	st := b.clientLoop(tr, "op", b.opsPer)
	if tr != nil {
		b.mu.Lock()
		b.tracedOps += st.ops
		b.mu.Unlock()
	}
	return st, nil
}

// clientLoop runs ops closed-loop on every client at once and folds the
// clients' record streams, in client order, into one digest.
func (b *daemonBench) clientLoop(tr *tracer, prefix string, ops int) passStats {
	per := make([]passStats, len(b.clients))
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			digest := sha256.New()
			st := &per[c]
			for i := 0; i < ops; i++ {
				t := time.Now()
				ok := b.op(tr, c, i, fmt.Sprintf("%s/%d/%d", prefix, c, i), digest)
				st.latMs = append(st.latMs, msSince(t))
				st.ops++
				if !ok {
					st.failed++
				}
			}
			digest.Sum(st.digest[:0])
		}(c)
	}
	wg.Wait()
	var st passStats
	all := sha256.New()
	for _, p := range per {
		st.ops += p.ops
		st.failed += p.failed
		st.latMs = append(st.latMs, p.latMs...)
		all.Write(p.digest[:])
	}
	all.Sum(st.digest[:0])
	return st
}

// op performs client c's i-th operation and reports whether every
// response was 2xx, every job done, and every replicate a success.
func (b *daemonBench) op(tr *tracer, c, i int, name string, digest io.Writer) bool {
	client := b.clients[c]
	var opSpan *active
	if tr != nil {
		opSpan = tr.begin("service", "op", tr.root)
		defer tr.end(opSpan, nil)
	}
	async := i%8 == 7
	spec := b.spec(name, async)
	var ok bool
	var body []byte
	if async {
		t := time.Now()
		body, ok = b.asyncFollow(client, tr, opSpan, spec)
		b.note(tr, &b.followMs, t)
	} else {
		t := time.Now()
		var info service.JobInfo
		ok = b.do(client, tr, opSpan, "submit-sync", http.MethodPost, "/v1/jobs?wait=1", spec, &info) == http.StatusOK &&
			info.State == service.StateDone && info.Records == spec.Replicates
		syncMs := msSince(t)
		b.note(tr, &b.syncMs, t)
		t = time.Now()
		var raw bytes.Buffer
		ok = ok && b.do(client, tr, opSpan, "records", http.MethodGet, "/v1/jobs/"+info.ID+"/records", nil, &raw) == http.StatusOK
		b.note(tr, &b.recordsMs, t)
		body = raw.Bytes()
		if tr != nil && i%16 == 0 {
			// Local execution of the same job, against its sync latency.
			t := time.Now()
			if _, err := b.runLocal(spec); err == nil {
				b.mu.Lock()
				b.execShare = append(b.execShare, msSince(t)/syncMs)
				b.mu.Unlock()
			}
		}
	}
	ok = ok && recordsOK(body, spec.Replicates)
	digest.Write(body)
	if i%16 == 15 {
		t := time.Now()
		ok = b.do(client, tr, opSpan, "metrics", http.MethodGet, "/metrics", nil, io.Discard) == http.StatusOK && ok
		b.note(tr, &b.metricsMs, t)
	}
	return ok
}

// asyncFollow submits spec asynchronously and follows its records to the
// end of the stream.
func (b *daemonBench) asyncFollow(client *http.Client, tr *tracer, parent *active, spec service.JobSpec) ([]byte, bool) {
	var info service.JobInfo
	if b.do(client, tr, parent, "submit-async", http.MethodPost, "/v1/jobs?wait=0", spec, &info) != http.StatusAccepted {
		return nil, false
	}
	var raw bytes.Buffer
	if b.do(client, tr, parent, "follow", http.MethodGet, "/v1/jobs/"+info.ID+"/records?follow=1", nil, &raw) != http.StatusOK {
		return nil, false
	}
	return raw.Bytes(), true
}

// do sends one request and decodes (into a pointer) or copies (into a
// writer) the response body, returning the status code, or 0 on a
// transport error.
func (b *daemonBench) do(client *http.Client, tr *tracer, parent *active, name, method, path string, in any, out any) int {
	var body io.Reader
	if in != nil {
		js, err := json.Marshal(in)
		if err != nil {
			return 0
		}
		body = bytes.NewReader(js)
	}
	var sp *active
	if tr != nil {
		sp = tr.begin("service", name, parent)
	}
	req, err := http.NewRequest(method, b.ts.URL+path, body)
	if err != nil {
		return 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	switch v := out.(type) {
	case io.Writer:
		_, err = io.Copy(v, resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(v)
		io.Copy(io.Discard, resp.Body)
	}
	if sp != nil {
		tr.end(sp, map[string]any{"status": resp.StatusCode})
	}
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// note appends the time since t to a traced latency series.
func (b *daemonBench) note(tr *tracer, series *[]float64, t time.Time) {
	if tr == nil {
		return
	}
	ms := msSince(t)
	b.mu.Lock()
	*series = append(*series, ms)
	b.mu.Unlock()
}

// recordsOK checks a JSONL record stream: want records, every one a
// success (consensus on the initial plurality color).
func recordsOK(body []byte, want int) bool {
	recs, err := mc.ReadRecords(bytes.NewReader(body))
	if err != nil || len(recs) != want {
		return false
	}
	for _, r := range recs {
		if !r.Success {
			return false
		}
	}
	return true
}

func (b *daemonBench) layers(m map[string]float64) {
	sq := quantiles(b.syncMs, 0.5, 0.99)
	m["service.sync_p50_ms"], m["service.sync_p99_ms"] = sq[0], sq[1]
	m["service.records_p50_ms"] = median(b.recordsMs)
	m["service.async_follow_p50_ms"] = median(b.followMs)
	m["service.metrics_p50_ms"] = median(b.metricsMs)
	m["service.exec_share"] = median(b.execShare)
	if b.jfs != nil && b.tracedOps > 0 {
		j := b.jfs
		j.mu.Lock()
		m["journal.fsyncs_per_op"] = float64(len(j.syncUs)) / float64(b.tracedOps)
		m["journal.fsync_p50_us"] = median(j.syncUs)
		m["journal.write_p50_us"] = median(j.writeUs)
		m["journal.bytes_per_op"] = float64(j.bytes) / float64(b.tracedOps)
		j.mu.Unlock()
	}
	// Kernel probes with the jobs' own parameters.
	m["dist.multinomial_ns"], m["dist.binomial_ns"] = probeCountKernels(colorcfg.Biased(daemonN, daemonK, core.Corollary1Bias(daemonN, daemonK, 1.0)))
}

// traceCtx is the tracer and parent span journal operations record under.
type traceCtx struct {
	tr   *tracer
	root *active
}

// timedFS wraps the real filesystem handed to the service as Options.FS
// and times each journal write and fsync while a traced pass runs.
type timedFS struct {
	service.FS
	cur atomic.Pointer[traceCtx]

	mu              sync.Mutex
	syncUs, writeUs []float64
	bytes           int64
}

func (f *timedFS) OpenAppend(path string) (service.File, error) {
	fl, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

type timedFile struct {
	service.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	tc := f.fs.cur.Load()
	if tc == nil {
		return f.File.Write(p)
	}
	sp := tc.tr.begin("journal", "write", tc.root)
	n, err := f.File.Write(p)
	tc.tr.end(sp, map[string]any{"bytes": n})
	f.fs.mu.Lock()
	f.fs.writeUs = append(f.fs.writeUs, float64(sp.s.End-sp.s.Start)/1e3)
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	tc := f.fs.cur.Load()
	if tc == nil {
		return f.File.Sync()
	}
	sp := tc.tr.begin("journal", "fsync", tc.root)
	err := f.File.Sync()
	tc.tr.end(sp, nil)
	f.fs.mu.Lock()
	f.fs.syncUs = append(f.fs.syncUs, float64(sp.s.End-sp.s.Start)/1e3)
	f.fs.mu.Unlock()
	return err
}
