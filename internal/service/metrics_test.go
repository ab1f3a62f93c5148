package service_test

// Black-box tests of GET /metrics: every scrape must parse under the
// strict in-repo promtext parser, the lifecycle gauges must equal a
// walk of the store whenever the server is quiescent, and a crash
// resume must never double-count replicates (executed and resumed are
// separate counters that always sum to the work done exactly once).

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"plurality/internal/service"
	"plurality/internal/service/faultfs"
	"plurality/internal/service/promtext"
)

// scrapeMetrics fetches and certifies one scrape: it must parse under
// the strict parser and pass the family-level invariants.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]*promtext.Family {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d (%s)", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics: Content-Type %q lacks the text-format version", ct)
	}
	fams, err := promtext.Parse(raw)
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, raw)
	}
	if err := promtext.Validate(fams); err != nil {
		t.Fatalf("scrape fails validation: %v\n%s", err, raw)
	}
	return fams
}

// famValue reads one sample, treating an absent sample as 0 (labelled
// counter families only materialize label sets that were incremented).
func famValue(t *testing.T, fams map[string]*promtext.Family, family string, labels map[string]string) float64 {
	t.Helper()
	f, ok := fams[family]
	if !ok {
		t.Fatalf("scrape has no family %q", family)
	}
	v, _ := f.Get(labels)
	return v
}

// documentedFamily is one row of DESIGN.md §10's metrics table: a
// family's type and its label names, sorted.
type documentedFamily struct {
	typ    string
	labels []string
}

// documentedFamilies parses DESIGN.md §10's metrics table, keyed by full
// family name. A row may name several families (`a`, `b`); its labels
// cell lists label names in backticks, each optionally followed by its
// values in parentheses, or "—" for none.
func documentedFamilies(t *testing.T) map[string]documentedFamily {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(raw), "\n## §10 ")
	sec, _, _ = strings.Cut(sec, "\n## ")
	ticked := regexp.MustCompile("`([a-z_]+)`")
	values := regexp.MustCompile(`\([^)]*\)`)
	out := map[string]documentedFamily{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		labels := []string{}
		for _, m := range ticked.FindAllStringSubmatch(values.ReplaceAllString(cells[3], ""), -1) {
			labels = append(labels, m[1])
		}
		slices.Sort(labels)
		for _, m := range ticked.FindAllStringSubmatch(cells[1], -1) {
			out["pluralityd_"+m[1]] = documentedFamily{typ: strings.TrimSpace(cells[2]), labels: labels}
		}
	}
	if len(out) == 0 {
		t.Fatal("parsed no family from DESIGN.md §10's metrics table")
	}
	return out
}

// TestMetricsScrapeShape pins the exposition contract against DESIGN.md
// §10's metrics table: the scrape exposes exactly the documented
// families, each with its documented type, its documented label names
// on every sample (a histogram's le aside) and HELP text — on a fresh
// server and after traffic.
func TestMetricsScrapeShape(t *testing.T) {
	want := documentedFamilies(t)
	s, ts := boot(t, service.Options{Workers: 2})
	defer func() { ts.Close(); s.Close() }()

	check := func(when string) {
		fams := scrapeMetrics(t, ts)
		for name, doc := range want {
			f, ok := fams[name]
			if !ok {
				t.Fatalf("%s: scrape is missing family %q", when, name)
			}
			if f.Type != doc.typ {
				t.Fatalf("%s: family %q has type %q, want %q", when, name, f.Type, doc.typ)
			}
			if f.Help == "" {
				t.Fatalf("%s: family %q has no HELP text", when, name)
			}
			for _, sm := range f.Samples {
				labels := []string{}
				for l := range sm.Labels {
					if l != "le" {
						labels = append(labels, l)
					}
				}
				slices.Sort(labels)
				if !slices.Equal(labels, doc.labels) {
					t.Fatalf("%s: sample %s of family %q has labels %v, documented %v", when, sm.Name, name, labels, doc.labels)
				}
			}
		}
		for name := range fams {
			if _, ok := want[name]; !ok {
				t.Fatalf("%s: scrape exposes undocumented family %q", when, name)
			}
		}
	}
	check("fresh server")

	spec := service.JobSpec{N: 100_000, K: 8, Seed: 3, Replicates: 5, MaxRounds: 2000}
	status, info, raw := submit(t, ts, spec, "?wait=1")
	if status != http.StatusOK || info.State != service.StateDone {
		t.Fatalf("sync submit: status %d state %s (%s)", status, info.State, raw)
	}
	check("after traffic")

	// The one completed job must show up in the run counters: 5 executed
	// replicates on the multinomial engine (auto-resolved for 3majority),
	// none resumed, and a histogram count to match.
	fams := scrapeMetrics(t, ts)
	labels := map[string]string{"engine": "multinomial", "rule": "3majority"}
	if got := famValue(t, fams, "pluralityd_replicates_total", labels); got != 5 {
		t.Fatalf("replicates_total = %v, want 5", got)
	}
	if got := famValue(t, fams, "pluralityd_replicates_resumed_total", labels); got != 0 {
		t.Fatalf("replicates_resumed_total = %v, want 0", got)
	}
	if got, ok := fams["pluralityd_replicate_rounds"].Value("pluralityd_replicate_rounds_count", nil); !ok || got != 5 {
		t.Fatalf("replicate_rounds_count = %v, %v; want 5", got, ok)
	}
	if got := famValue(t, fams, "pluralityd_jobs_submitted_total", map[string]string{"path": "sync"}); got != 1 {
		t.Fatalf("jobs_submitted_total{path=sync} = %v, want 1", got)
	}
	// The pool utilization counters are cumulative over the process-wide
	// shared pool, so other tests may have contributed — but the 5
	// replicates just executed must be included.
	var poolTasks float64
	for _, s := range fams["pluralityd_worker_tasks_total"].Samples {
		poolTasks += s.Value
	}
	if poolTasks < 5 {
		t.Fatalf("sum of worker_tasks_total = %v, want >= 5", poolTasks)
	}
	// An untraced job must not feed the round-duration histogram.
	if got, ok := fams["pluralityd_round_duration_seconds"].Value("pluralityd_round_duration_seconds_count", nil); !ok || got != 0 {
		t.Fatalf("round_duration_seconds_count = %v, %v; want 0 without traced jobs", got, ok)
	}
}

// TestMetricsGaugeStoreConsistency runs a randomized workload —
// sync and async submissions, cancellations, deletions — and asserts
// that once the server quiesces, the lifecycle gauges equal a walk of
// the job store and the monotone counters equal the history the test
// drove. Seeded: failures reproduce.
func TestMetricsGaugeStoreConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, ts := boot(t, service.Options{Workers: 2, Executors: 2, Backlog: 64})
	defer func() { ts.Close(); s.Close() }()

	const jobs = 18
	var ids []string
	wantSync, wantAsync, wantDeleted := 0, 0, 0
	wantRecords := 0
	for i := 0; i < jobs; i++ {
		spec := service.JobSpec{N: 50_000, K: 2 + rng.Intn(7),
			Seed: uint64(100 + i), Replicates: 1 + rng.Intn(4), MaxRounds: 500}
		if rng.Intn(3) == 0 {
			status, info, raw := submit(t, ts, spec, "?wait=1")
			if status != http.StatusOK {
				t.Fatalf("sync submit %d: status %d (%s)", i, status, raw)
			}
			wantSync++
			ids = append(ids, info.ID)
		} else {
			status, info, raw := submit(t, ts, spec, "?wait=0")
			if status != http.StatusAccepted {
				t.Fatalf("async submit %d: status %d (%s)", i, status, raw)
			}
			wantAsync++
			ids = append(ids, info.ID)
			if rng.Intn(4) == 0 {
				resp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/cancel", "", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}
	}
	// Quiesce: every job terminal. Then thin the store with a few deletes.
	for _, id := range ids {
		info := waitJob(t, ts, id, "terminal", func(i service.JobInfo) bool { return i.State.Terminal() })
		wantRecords += info.Records
	}
	for i, id := range ids {
		if i%5 != 0 {
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", id, resp.StatusCode)
		}
		wantDeleted++
	}

	// The store walk is the ground truth the gauges must equal.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	storeCount := map[service.State]int{}
	for _, j := range listing.Jobs {
		storeCount[j.State]++
	}

	fams := scrapeMetrics(t, ts)
	states := []service.State{service.StateQueued, service.StateRunning,
		service.StateDone, service.StateFailed, service.StateCancelled}
	for _, st := range states {
		got := famValue(t, fams, "pluralityd_jobs", map[string]string{"state": string(st)})
		if got != float64(storeCount[st]) {
			t.Errorf("pluralityd_jobs{state=%s} = %v, store has %d", st, got, storeCount[st])
		}
	}
	if got := famValue(t, fams, "pluralityd_jobs_submitted_total", map[string]string{"path": "sync"}); got != float64(wantSync) {
		t.Errorf("jobs_submitted_total{path=sync} = %v, want %d", got, wantSync)
	}
	if got := famValue(t, fams, "pluralityd_jobs_submitted_total", map[string]string{"path": "async"}); got != float64(wantAsync) {
		t.Errorf("jobs_submitted_total{path=async} = %v, want %d", got, wantAsync)
	}
	if got := famValue(t, fams, "pluralityd_jobs_deleted_total", nil); got != float64(wantDeleted) {
		t.Errorf("jobs_deleted_total = %v, want %d", got, wantDeleted)
	}
	// Finished counters are monotone history: deletion must not erase them.
	var finished float64
	for _, st := range []service.State{service.StateDone, service.StateFailed, service.StateCancelled} {
		finished += famValue(t, fams, "pluralityd_jobs_finished_total", map[string]string{"state": string(st)})
	}
	if finished != float64(jobs) {
		t.Errorf("sum of jobs_finished_total = %v, want %d", finished, jobs)
	}
	// Every record that ever cleared the sink was counted exactly once,
	// deletions included; no journal is configured so nothing is resumed.
	var executed, resumed float64
	for _, s := range fams["pluralityd_replicates_total"].Samples {
		executed += s.Value
	}
	for _, s := range fams["pluralityd_replicates_resumed_total"].Samples {
		resumed += s.Value
	}
	if executed != float64(wantRecords) || resumed != 0 {
		t.Errorf("replicates executed=%v resumed=%v, want %d and 0", executed, resumed, wantRecords)
	}
}

// TestMetricsNoDoubleCountAfterCrash is the crash/replay half of the
// accounting contract: kill the daemon mid-job, restart on the same
// disk image, and require executed + resumed replicates to sum to the
// job's replicate count exactly — the journaled prefix is adopted, not
// re-counted.
func TestMetricsNoDoubleCountAfterCrash(t *testing.T) {
	spec := resumableSpec() // engine "sampled", rule "3majority", 12 replicates
	fs := faultfs.New()
	s1, ts1 := boot(t, durableOpts(fs))
	status, info, raw := submit(t, ts1, spec, "?wait=0")
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	waitJob(t, ts1, info.ID, ">=3 records", func(i service.JobInfo) bool { return i.Records >= 3 })
	post := fs.Crash()
	ts1.Close()
	s1.Close()

	s2, ts2 := boot(t, durableOpts(post))
	defer func() { ts2.Close(); s2.Close() }()
	done := waitJob(t, ts2, info.ID, "done", func(i service.JobInfo) bool { return i.State == service.StateDone })
	if done.Records != spec.Replicates {
		t.Fatalf("resumed job finished with %d records, want %d", done.Records, spec.Replicates)
	}

	fams := scrapeMetrics(t, ts2)
	labels := map[string]string{"engine": "sampled", "rule": "3majority"}
	executed := famValue(t, fams, "pluralityd_replicates_total", labels)
	resumed := famValue(t, fams, "pluralityd_replicates_resumed_total", labels)
	if executed+resumed != float64(spec.Replicates) {
		t.Fatalf("executed (%v) + resumed (%v) = %v, want exactly %d: a resumed replicate was double-counted or lost",
			executed, resumed, executed+resumed, spec.Replicates)
	}
	// The crash landed after >=3 records with SyncEvery=2, so at least 2
	// were durable and must have been adopted rather than re-executed.
	if resumed < 2 {
		t.Fatalf("resumed = %v, want >= 2 (journaled prefix was re-executed)", resumed)
	}
	// The restarted process's terminal counter must count the resumed
	// job's completion once (it performed the transition) even though the
	// job was submitted by the previous process.
	if got := famValue(t, fams, "pluralityd_jobs_finished_total", map[string]string{"state": "done"}); got != 1 {
		t.Fatalf("jobs_finished_total{state=done} = %v, want 1", got)
	}
}
