package tree

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dpc/internal/comm"
	"dpc/internal/transport"
)

func TestSpecFlagRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		str  string
	}{
		{"star", Spec{}, "star"},
		{"tree", Spec{Tree: true}, "tree"},
		{"tree,branch=4", Spec{Tree: true, Branch: 4}, "tree,branch=4"},
		{" tree , branch=16 ", Spec{Tree: true, Branch: 16}, "tree,branch=16"},
	}
	for _, tc := range cases {
		var s Spec
		if err := s.Set(tc.in); err != nil {
			t.Fatalf("Set(%q): %v", tc.in, err)
		}
		if s != tc.want {
			t.Fatalf("Set(%q) = %+v, want %+v", tc.in, s, tc.want)
		}
		if got := s.String(); got != tc.str {
			t.Fatalf("String() = %q, want %q", got, tc.str)
		}
	}
	for _, bad := range []string{"ring", "tree,branch=1", "tree,branch=x", "branch=-3,tree"} {
		var s Spec
		if err := s.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

func TestSpecJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{`"star"`, Spec{}},
		{`"tree,branch=4"`, Spec{Tree: true, Branch: 4}},
		{`{"tree":true,"branch":6}`, Spec{Tree: true, Branch: 6}},
		{`null`, Spec{}},
	} {
		var s Spec
		if err := json.Unmarshal([]byte(tc.in), &s); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.in, err)
		}
		if s != tc.want {
			t.Fatalf("unmarshal %s = %+v, want %+v", tc.in, s, tc.want)
		}
	}
	b, err := json.Marshal(Spec{Tree: true, Branch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"tree,branch=4"` {
		t.Fatalf("marshal = %s", b)
	}
	var s Spec
	if err := json.Unmarshal([]byte(`{"tree":true,"branch":1}`), &s); err == nil {
		t.Fatal("branch=1 object accepted")
	}
}

func TestGroups(t *testing.T) {
	for _, tc := range []struct {
		n, b int
		want []int
	}{
		{9, 3, []int{3, 3, 3}},
		{10, 3, []int{3, 3, 3, 1}},
		{2, 8, []int{2}},
		{17, 8, []int{8, 8, 1}},
	} {
		if got := Groups(tc.n, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Groups(%d,%d) = %v, want %v", tc.n, tc.b, got, tc.want)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	bt := batch{
		levels: []comm.TreeLevel{{Down: 120, Up: 4096}, {Down: 360, Up: 9000}},
		secs: []section{
			{work: 17 * time.Microsecond, data: []byte("payload-a")},
			{work: 0, data: []byte{0}},
			{data: nil},
		},
	}
	got, err := decodeBatch(encodeBatch(bt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.levels, bt.levels) {
		t.Fatalf("levels %+v, want %+v", got.levels, bt.levels)
	}
	if len(got.secs) != len(bt.secs) {
		t.Fatalf("%d sections, want %d", len(got.secs), len(bt.secs))
	}
	for i := range bt.secs {
		if got.secs[i].work != bt.secs[i].work || !bytes.Equal(got.secs[i].data, bt.secs[i].data) {
			t.Fatalf("section %d = %+v, want %+v", i, got.secs[i], bt.secs[i])
		}
	}
	// 17000 ns is a three-byte uvarint, the two zero durations one each.
	if got.workBytes != 3+1+1 {
		t.Fatalf("work varints took %d bytes, want 5", got.workBytes)
	}
}

func TestDecodeBatchHostile(t *testing.T) {
	good := encodeBatch(batch{levels: []comm.TreeLevel{{Up: 5}}, secs: []section{{data: []byte("x")}}})
	for name, raw := range map[string][]byte{
		"empty":          nil,
		"bad magic":      {0x00, 0x01},
		"bad version":    {batchMagic, 0x7f},
		"old version":    {batchMagic, 1, 1, 0, 0, 0},
		"zero levels":    {batchMagic, batchVersion, 0x00},
		"huge levels":    append([]byte{batchMagic, batchVersion}, binary.AppendUvarint(nil, 1<<40)...),
		"huge sections":  append([]byte{batchMagic, batchVersion, 1, 0, 0}, binary.AppendUvarint(nil, maxSections+1)...),
		"many sections":  {batchMagic, batchVersion, 1, 0, 0, 3, 0, 0, 0, 0},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0xff),
		"section length": {batchMagic, batchVersion, 1, 0, 0, 1, 0, 0x7f},
	} {
		if _, err := decodeBatch(raw); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder: it must never
// panic, never size anything beyond the input, and whatever decodes must
// re-encode to a batch that decodes to the same levels and sections.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch(batch{levels: []comm.TreeLevel{{Up: 5}}, secs: []section{{data: []byte("x")}}}))
	f.Add(encodeBatch(batch{
		levels: []comm.TreeLevel{{Down: 120, Up: 4096}, {Down: 360, Up: 9000}},
		secs:   []section{{work: time.Second, data: []byte("payload-a")}, {}, {work: 1, data: []byte{0}}},
	}))
	f.Add([]byte{batchMagic, batchVersion, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bt, err := decodeBatch(raw)
		if err != nil {
			return
		}
		if len(bt.secs) > len(raw) || len(bt.levels) > len(raw) || bt.workBytes > int64(len(raw)) {
			t.Fatalf("%d sections, %d levels, %d work bytes out of %d bytes", len(bt.secs), len(bt.levels), bt.workBytes, len(raw))
		}
		again, err := decodeBatch(encodeBatch(bt))
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(again.levels, bt.levels) || len(again.secs) != len(bt.secs) {
			t.Fatalf("re-encoded batch differs: %+v vs %+v", again, bt)
		}
		for i := range bt.secs {
			if again.secs[i].work != bt.secs[i].work || !bytes.Equal(again.secs[i].data, bt.secs[i].data) {
				t.Fatalf("section %d differs after re-encoding", i)
			}
		}
	})
}

// echoHandlers builds n handlers whose replies identify (site, round) so the
// root's reconstruction order is checkable.
func echoHandlers(n int) []transport.Handler {
	hs := make([]transport.Handler, n)
	for i := range hs {
		site := i
		hs[i] = func(round int, in []byte) ([]byte, error) {
			return []byte(fmt.Sprintf("site=%d round=%d in=%s", site, round, in)), nil
		}
	}
	return hs
}

func TestNewLocalTreeOrderAndStats(t *testing.T) {
	const sites, branch = 10, 3
	tr, err := NewLocal(context.Background(), transport.KindLoopback, echoHandlers(sites), true, Spec{Tree: true, Branch: branch})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	root, ok := tr.(*Root)
	if !ok {
		t.Fatalf("got %T, want *Root", tr)
	}
	if tr.Sites() != sites {
		t.Fatalf("Sites() = %d", tr.Sites())
	}
	for round := 0; round < 2; round++ {
		msg := []byte(fmt.Sprintf("cfg%d", round))
		if err := tr.Broadcast(round, msg); err != nil {
			t.Fatal(err)
		}
		res, err := tr.Gather(context.Background(), round)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Payloads) != sites || len(res.Work) != sites {
			t.Fatalf("round %d: %d payloads, %d work entries", round, len(res.Payloads), len(res.Work))
		}
		for i, p := range res.Payloads {
			want := fmt.Sprintf("site=%d round=%d in=%s", i, round, msg)
			if string(p) != want {
				t.Fatalf("payload %d = %q, want %q", i, p, want)
			}
		}
	}
	if err := tr.Send(0, 1, []byte("x")); err == nil {
		t.Fatal("Send accepted over a tree")
	}
	stats, ok := root.TreeStats()
	if !ok {
		t.Fatal("no tree stats")
	}
	// 10 sites at branch 3 builds tiers 10 -> 4 -> 2, so three levels of
	// links: root<->2 aggregators, those<->4 aggregators, those<->10 leaves.
	if stats.Branch != branch || stats.Leaves != sites || len(stats.Levels) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, l := range stats.Levels {
		if l.Down <= 0 || l.Up <= 0 {
			t.Fatalf("unaccounted level %d: %+v", i, stats.Levels)
		}
	}
	// Every leaf saw each broadcast once: the leaf-level down bytes are
	// exactly sites × len(msg) per round.
	if want := int64(sites * len("cfg0") * 2); stats.Levels[2].Down != want {
		t.Fatalf("leaf down bytes = %d, want %d", stats.Levels[2].Down, want)
	}
}

func TestNewLocalDegeneratesToStar(t *testing.T) {
	tr, err := NewLocal(context.Background(), transport.KindLoopback, echoHandlers(3), true, Spec{Tree: true, Branch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, ok := tr.(*Root); ok {
		t.Fatal("3 sites under branch 8 should be a plain star")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	hs := echoHandlers(9)
	hs[4] = func(round int, in []byte) ([]byte, error) {
		return nil, fmt.Errorf("site 4 exploded")
	}
	tr, err := NewLocal(context.Background(), transport.KindLoopback, hs, true, Spec{Tree: true, Branch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Broadcast(0, []byte("go")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Gather(context.Background(), 0); err == nil {
		t.Fatal("gather succeeded past a failing leaf")
	}
}

// An aggregator daemon serves job frames only: a parent whose welcome is
// anything but the job-frame marker — a stranger's, or the marker of an
// earlier payload or job frame encoding — is refused, not served blindly.
func TestServeRejectsOtherWelcome(t *testing.T) {
	for _, welcome := range []string{"not-the-jobs-marker", "dpc-jobs/1", "dpc-jobs/2"} {
		l, err := transport.Listen("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		served := make(chan error, 1)
		go func() {
			sc, err := transport.Dial(l.Addr().String(), 0, 5*time.Second)
			if err != nil {
				served <- nil // reported by Accept below
				return
			}
			defer sc.Close()
			child, _ := transport.NewCoordinator(nil, nil) // no children
			served <- Serve(sc, child, false)
		}()
		coord, err := l.Accept(1, []byte(welcome))
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		if err := <-served; err == nil {
			t.Fatalf("Serve accepted a parent whose welcome is %q", welcome)
		}
	}
}

// timedSites is a child transport whose sites answer a fixed payload and
// report an injected compute time.
type timedSites struct {
	payloads [][]byte
	work     time.Duration
}

func (f timedSites) Sites() int                  { return len(f.payloads) }
func (f timedSites) Broadcast(int, []byte) error { return nil }
func (f timedSites) Send(int, int, []byte) error { return nil }
func (f timedSites) Close() error                { return nil }
func (f timedSites) Gather(context.Context, int) (transport.RoundResult, error) {
	res := transport.RoundResult{Payloads: f.payloads, Work: make([]time.Duration, len(f.payloads))}
	for i := range res.Work {
		res.Work[i] = f.work
	}
	return res, nil
}

// Site compute times ride in the batch beside the payloads, as they ride in
// the TCP frame header below the aggregators: transport metadata, outside
// the byte accounting. Two runs that differ only in how long the sites took
// — a one-byte varint against a six-byte one — report the same TreeStats.
func TestTreeStatsIgnoreWorkDurations(t *testing.T) {
	run := func(work time.Duration) comm.TreeStats {
		var mids []transport.Handler
		for g := 0; g < 2; g++ {
			var low []transport.Handler
			for c := 0; c < 2; c++ {
				sites := timedSites{work: work}
				for i := 0; i < 3; i++ {
					sites.payloads = append(sites.payloads, []byte(fmt.Sprintf("payload of site %d", 6*g+3*c+i)))
				}
				low = append(low, NewAggregator(nil, sites, false).Handle)
			}
			mids = append(mids, NewAggregator(nil, transport.NewLoopback(low, false), true).Handle)
		}
		root, err := NewRootOver(transport.NewLoopback(mids, false), 12, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		if err := root.Broadcast(0, []byte("cfg")); err != nil {
			t.Fatal(err)
		}
		res, err := root.Gather(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range res.Work {
			if w != work {
				t.Fatalf("site %d work %v, want %v", i, w, work)
			}
		}
		stats, _ := root.TreeStats()
		return stats
	}
	fast, slow := run(time.Nanosecond), run(time.Hour)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("tree stats move with site compute time:\n1ns: %+v\n1h:  %+v", fast, slow)
	}
	if len(fast.Levels) != 3 || fast.RootUpBytes() <= 0 {
		t.Fatalf("stats = %+v", fast)
	}
}
