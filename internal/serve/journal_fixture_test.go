package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/journal"
	"dpc/internal/transport"
)

// The journal fixture is a journal directory written by an earlier
// version of the server (before datasets were split into one file per
// kind): fixtureCalls against a server journaling into journalFixtureDir,
// with what that server then reported — every dataset's summary as
// replayable keeps it, and every finished job — saved as
// journalFixtureWant. Old journals must keep replaying, and the same API
// calls must keep writing byte-identical dataset records. A deliberate
// change of the record format adds a new fixture beside this one; this
// one stays, written by the old code.
//
// The fixture also holds two datasets of the retired stream kind, st and
// s2, made by calls this server rejects: replay reports their records as
// errors naming the kind, their finished jobs are still re-served, and the
// record comparison leaves their records out.
const (
	journalFixtureDir  = "testdata/journal-v1"
	journalFixtureWant = "testdata/journal-v1.want.json"
)

// retiredFixtureDatasets are the fixture's stream datasets.
var retiredFixtureDatasets = map[string]bool{"st": true, "s2": true}

// fixtureWant is what the fixture's server reported before it shut down.
type fixtureWant struct {
	Datasets []DatasetInfo `json:"datasets"`
	Jobs     []Job         `json:"jobs"`
}

// csvRows renders rows in dataio's point CSV format with exact floats.
func csvRows(rows [][]float64, prefix func(i int) string) string {
	var b strings.Builder
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if prefix != nil {
			b.WriteString(prefix(i))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// fixtureCalls makes the API calls behind the fixture, less those of its
// stream datasets, against a fresh journaled server: every dataset kind
// through every registration path (JSON and CSV tables, a table body
// carrying fields the table ignores, uncertain data with and without an
// explicit ground set, by JSON and by CSV), appends before and after a
// snapshot, a delete, and one finished job per kind, remote included. No
// dataset changes after a job against it ran. It returns the finished jobs
// in submission order.
func fixtureCalls(t *testing.T, a *api, s *Server) []Job {
	t.Helper()
	var ids []string
	submit := func(spec JobSpec) {
		var j Job
		a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &j)
		ids = append(ids, j.ID)
		waitJob(t, a, j.ID)
	}

	// Before the snapshot.
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tj", Points: testPoints(40, 2, 1)}, http.StatusCreated, nil)
	a.do("POST", "/v1/datasets/tj/points", appendPointsRequest{Points: testPoints(10, 2, 2)}, http.StatusOK, nil)
	in := gen.UncertainMixture(gen.UncertainSpec{N: 12, K: 2, Support: 3, OutlierFrac: 0.1, Seed: 5})
	ground := make([][]float64, len(in.Ground.Pts))
	for i, p := range in.Ground.Pts {
		ground[i] = p
	}
	indexed := make([]NodeWire, len(in.Nodes))
	for j, nd := range in.Nodes {
		indexed[j] = NodeWire{Support: nd.Support, Probs: nd.Prob}
	}
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "uj", Kind: KindUncertain, Ground: ground, Nodes: indexed},
		http.StatusCreated, nil)
	submit(JobSpec{Dataset: "uj", K: 2, T: 1, Objective: "u-centerg", Seed: 1, Sites: 2})
	a.do("POST", "/v1/admin/compact", nil, http.StatusOK, nil)

	// After it: the journal's suffix.
	a.do("POST", "/v1/datasets?name=tc", csvRows(testPoints(30, 2, 5), nil), http.StatusCreated, nil)
	a.do("POST", "/v1/datasets/tc/points", appendPointsRequest{Points: testPoints(6, 2, 6)}, http.StatusOK, nil)
	a.do("POST", "/v1/datasets/tj/points", appendPointsRequest{Points: testPoints(5, 2, 7)}, http.StatusOK, nil)
	// A table body that also sends the retired stream fields journals only
	// the table's: unknown fields are ignored.
	tk, err := json.Marshal(testPoints(20, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	a.do("POST", "/v1/datasets", json.RawMessage(`{"name":"tk","points":`+string(tk)+`,"k":5,"t":1,"chunk":64,"seed":4}`),
		http.StatusCreated, nil)
	a.do("DELETE", "/v1/datasets/tk", nil, http.StatusNoContent, nil)
	nodes := csvRows(testPoints(18, 2, 11), func(i int) string {
		return fmt.Sprintf("n%d,%d,", i/3, 1+i%3) // probabilities 1:2:3, normalized on read
	})
	a.do("POST", "/v1/datasets?name=uc&kind=uncertain", nodes, http.StatusCreated, nil)
	inline := wireNodes(in)
	for j := range inline {
		for i := range inline[j].Probs {
			inline[j].Probs[i] *= 3 // normalized server-side
		}
	}
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "ui", Kind: KindUncertain, Nodes: inline}, http.StatusCreated, nil)

	// Remote datasets are live connections, never journaled; their jobs are.
	const sites = 2
	l, err := transport.Listen("127.0.0.1:0", sites)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	join := startPersistentSites(t, l.Addr().String(), dataio.SplitRoundRobin(rowsToPoints(testPoints(40, 2, 12)), sites))
	rd, err := s.RegisterRemote("rm", l, sites)
	if err != nil {
		t.Fatal(err)
	}

	submit(JobSpec{Dataset: "tj", K: 2, T: 3, Seed: 2, Sites: 3})
	submit(JobSpec{Dataset: "tc", K: 2, T: 2, Objective: "means", Seed: 3})
	submit(JobSpec{Dataset: "uj", K: 2, T: 1, Objective: "u-median", Seed: 4, Sites: 2})
	submit(JobSpec{Dataset: "uc", K: 2, T: 1, Objective: "u-means", Seed: 5, Sites: 2})
	submit(JobSpec{Dataset: "ui", K: 2, T: 1, Objective: "u-centerpp", Seed: 6, Sites: 2})
	submit(JobSpec{Dataset: "rm", K: 2, T: 2, Seed: 7})
	if err := rd.CloseRemote(); err != nil {
		t.Fatal(err)
	}
	for i, err := range join() {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}

	jobs := make([]Job, len(ids))
	for i, id := range ids {
		a.do("GET", "/v1/jobs/"+id, nil, http.StatusOK, &jobs[i])
		if jobs[i].Status != StatusDone {
			t.Fatalf("fixture job %s on %s: %s %s", id, jobs[i].Spec.Dataset, jobs[i].Status, jobs[i].Error)
		}
	}
	return jobs
}

// copyJournal copies a journal directory, so replaying (which appends a
// seal) never touches the checked-in fixture.
func copyJournal(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// datasetRecords returns a journal's dataset records in log order as
// "kind payload" lines: puts, appends and deletes whole, and of a
// snapshot only its datasets (its jobs carry timestamps). Records of the
// datasets named in skip are left out, and so are their entries in a
// snapshot's datasets array; every other byte is kept.
func datasetRecords(t *testing.T, dir string, skip map[string]bool) []string {
	t.Helper()
	jl, res, err := journal.OpenDir(copyJournal(t, dir), journal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()
	skipped := func(raw []byte) bool {
		var named struct{ Name string }
		if err := json.Unmarshal(raw, &named); err != nil {
			t.Fatal(err)
		}
		return skip[named.Name]
	}
	var out []string
	for _, rec := range res.Records {
		switch rec.Kind {
		case recDatasetPut, recDatasetAppend, recDatasetDelete:
			if !skipped(rec.Payload) {
				out = append(out, fmt.Sprintf("%d %s", rec.Kind, rec.Payload))
			}
		case recSnapshot:
			var snap struct {
				Datasets []json.RawMessage `json:"datasets"`
			}
			if err := json.Unmarshal(rec.Payload, &snap); err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, wd := range snap.Datasets {
				if !skipped(wd) {
					kept = append(kept, string(wd))
				}
			}
			out = append(out, fmt.Sprintf("%d [%s]", rec.Kind, strings.Join(kept, ",")))
		}
	}
	return out
}

// replayable drops what a replay legitimately changes in a summary:
// versions are handed out in registration order, and distance caches
// start cold.
func replayable(infos []DatasetInfo) []DatasetInfo {
	out := make([]DatasetInfo, 0, len(infos))
	for _, info := range infos {
		if info.Kind == KindRemote {
			continue
		}
		info.Version, info.CacheHits, info.CacheMisses = 0, 0, 0
		out = append(out, info)
	}
	return out
}

// TestJournalFixtureReplays replays the checked-in journal: every dataset
// of a kind this server builds comes back with the summary the old server
// reported, every finished job with its centers, and resubmitting a job
// against the replayed data reproduces those centers bit for bit. The
// stream datasets' records are replay errors that name the kind.
func TestJournalFixtureReplays(t *testing.T) {
	raw, err := os.ReadFile(journalFixtureWant)
	if err != nil {
		t.Fatal(err)
	}
	var want fixtureWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	kept := want.Datasets[:0]
	for _, info := range want.Datasets {
		if !retiredFixtureDatasets[info.Name] {
			kept = append(kept, info)
		}
	}
	want.Datasets = kept

	a, s := newAPI(t, Config{JournalDir: copyJournal(t, journalFixtureDir)})
	rec := s.Recovery()
	if !rec.FromSnapshot || rec.JobsReplayed != len(want.Jobs) || rec.JobsResumed != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	// Every replay error is a record of a stream dataset, and the first one
	// for each names the kind.
	named := map[string]bool{}
	for _, e := range rec.Errors {
		var of string
		for name := range retiredFixtureDatasets {
			if strings.Contains(e, strconv.Quote(name)) {
				of = name
			}
		}
		if of == "" {
			t.Fatalf("replay error %q is not about a stream dataset", e)
		}
		if !named[of] && !strings.Contains(e, `kind "stream"`) {
			t.Fatalf("first replay error for %q does not name the kind: %q", of, e)
		}
		named[of] = true
	}
	if len(named) != len(retiredFixtureDatasets) {
		t.Fatalf("replay errors %q: want records of each of %v reported", rec.Errors, retiredFixtureDatasets)
	}
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	a.do("GET", "/v1/datasets", nil, http.StatusOK, &list)
	if got := replayable(list.Datasets); !reflect.DeepEqual(got, want.Datasets) {
		t.Fatalf("replayed datasets:\n got %+v\nwant %+v", got, want.Datasets)
	}
	for _, wj := range want.Jobs {
		var got Job
		a.do("GET", "/v1/jobs/"+wj.ID, nil, http.StatusOK, &got)
		if got.Status != StatusDone || !got.Replayed || !reflect.DeepEqual(got.Result.Centers, wj.Result.Centers) {
			t.Fatalf("replayed job %s: %+v, want centers %v", wj.ID, got, wj.Result.Centers)
		}
		if wj.Spec.Dataset == "rm" || retiredFixtureDatasets[wj.Spec.Dataset] {
			continue // remote data lives at the sites; stream data is gone
		}
		var again Job
		a.do("POST", "/v1/jobs", wj.Spec, http.StatusAccepted, &again)
		if again = waitJob(t, a, again.ID); again.Status != StatusDone ||
			!reflect.DeepEqual(again.Result.Centers, wj.Result.Centers) || again.Result.Cost != wj.Result.Cost {
			t.Fatalf("job %s re-run on replayed %q: %+v, want centers %v cost %v",
				wj.ID, wj.Spec.Dataset, again.Result, wj.Result.Centers, wj.Result.Cost)
		}
	}
}

// TestJournalFixtureRecordBytes makes the fixture's API calls against
// the current server and compares the dataset records it journals —
// puts, appends, deletes and the snapshot's datasets — byte for byte with
// the fixture's, less the stream datasets' records.
func TestJournalFixtureRecordBytes(t *testing.T) {
	dir := t.TempDir()
	a, s := newAPI(t, Config{JournalDir: dir})
	fixtureCalls(t, a, s)
	s.Close()
	got, want := datasetRecords(t, dir, nil), datasetRecords(t, journalFixtureDir, retiredFixtureDatasets)
	if len(got) != len(want) {
		t.Fatalf("%d dataset records, fixture has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dataset record %d:\n got %.300s\nwant %.300s", i, got[i], want[i])
		}
	}
}
