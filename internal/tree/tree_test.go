package tree

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/metric"
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
			{method: mRaw, work: 17 * time.Microsecond, data: []byte("payload-a")},
			{method: mHull, work: 0, data: []byte{0}},
			{method: mRaw, data: nil},
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
		if got.secs[i].method != bt.secs[i].method || got.secs[i].work != bt.secs[i].work ||
			!bytes.Equal(got.secs[i].data, bt.secs[i].data) {
			t.Fatalf("section %d = %+v, want %+v", i, got.secs[i], bt.secs[i])
		}
	}
}

func TestDecodeBatchHostile(t *testing.T) {
	good := encodeBatch(batch{levels: []comm.TreeLevel{{Up: 5}}, secs: []section{{method: mRaw, data: []byte("x")}}})
	for name, raw := range map[string][]byte{
		"empty":          nil,
		"bad magic":      {0x00, 0x01},
		"bad version":    {batchMagic, 0x7f},
		"zero levels":    {batchMagic, batchVersion, 0x00},
		"huge levels":    append([]byte{batchMagic, batchVersion}, binary.AppendUvarint(nil, 1<<40)...),
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0xff),
		"bad method":     {batchMagic, batchVersion, 1, 0, 0, 1, 0xee, 0, 0},
		"section length": {batchMagic, batchVersion, 1, 0, 0, 1, mRaw, 0, 0x7f},
	} {
		if _, err := decodeBatch(raw); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// marshal builds the star wire bytes of a payload for compaction tests.
func marshal(t *testing.T, p comm.Payload) []byte {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCompactKnownPayloads(t *testing.T) {
	pts := []metric.Point{{1.5, -2.25, 3e9}, {0.125, 4, -5}, {6, 7, 8.5}}
	cases := []struct {
		name   string
		p      []byte
		method byte
	}{
		{"hull", marshal(t, comm.HullMsg{V: []geom.Vertex{{Q: 0, C: 91.5}, {Q: 3, C: 40.25}, {Q: 12, C: 0}}}), mHull},
		{"weighted integral", marshal(t, comm.WeightedPointsMsg{Pts: pts, W: []float64{3, 17, 2000}}), mWeighted},
		{"collapsed integral", marshal(t, comm.CollapsedMsg{Y: pts, Ell: []float64{0.5, 1.25, 9}, W: []float64{1, 2, 3}}), mCollapsed},
		{"multi", marshal(t, comm.Multi{Parts: []comm.Payload{
			comm.WeightedPointsMsg{Pts: pts, W: []float64{4, 5, 6}},
			comm.PointsMsg{Pts: pts},
		}}), mMulti},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := compact(tc.p)
			if s.method != tc.method {
				t.Fatalf("method %d, want %d", s.method, tc.method)
			}
			if len(s.data) >= len(tc.p) {
				t.Fatalf("no shrink: %d -> %d bytes", len(tc.p), len(s.data))
			}
			back, err := expandSection(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, tc.p) {
				t.Fatal("round trip not byte-identical")
			}
		})
	}
}

func TestCompactFallsBackRaw(t *testing.T) {
	// Non-integral weights still round-trip (raw rows behind a varint
	// header); arbitrary bytes and empty payloads fall back to mRaw.
	frac := marshal(t, comm.WeightedPointsMsg{Pts: []metric.Point{{1, 2}}, W: []float64{0.5}})
	s := compact(frac)
	back, err := expandSection(s)
	if err != nil || !bytes.Equal(back, frac) {
		t.Fatalf("fractional-weight round trip: err %v, equal %v", err, bytes.Equal(back, frac))
	}
	for _, p := range [][]byte{nil, {0x01}, []byte("arbitrary junk bytes"), bytes.Repeat([]byte{0xab}, 37)} {
		s := compact(p)
		back, err := expandSection(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, p) {
			t.Fatalf("junk payload altered: %x -> %x", p, back)
		}
	}
}

func TestExpandHostileSections(t *testing.T) {
	for name, s := range map[string]section{
		"hull huge count":   {method: mHull, data: binary.AppendUvarint(nil, 1<<50)},
		"hull q overflow":   {method: mHull, data: append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), math.MaxUint32+1), make([]byte, 8)...)},
		"block huge count":  {method: mPts, data: append(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 4), 0)},
		"block flag no w":   {method: mPts, data: append(binary.AppendUvarint(binary.AppendUvarint(nil, 0), 2), 1)},
		"weight overflow":   {method: mWeighted, data: append(append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 0), 1), binary.AppendUvarint(nil, 1<<53)...)},
		"multi huge count":  {method: mMulti, data: binary.AppendUvarint(nil, 1<<30)},
		"multi nested":      {method: mMulti, data: append(binary.AppendUvarint(nil, 1), mMulti, 0)},
		"unknown method":    {method: 0x7d, data: nil},
		"block dim too big": {method: mPts, data: append(binary.AppendUvarint(binary.AppendUvarint(nil, 0), 1<<30), 0)},
	} {
		if _, err := expandSection(s); err == nil {
			t.Errorf("%s: expanded", name)
		}
	}
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
// anything but the job-frame marker is refused, not served blindly.
func TestServeRejectsOtherWelcome(t *testing.T) {
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
		served <- Serve(sc, transport.NewLoopback(echoHandlers(2), false), false)
	}()
	coord, err := l.Accept(1, []byte("not-the-jobs-marker"))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := <-served; err == nil {
		t.Fatal("Serve accepted a parent that does not speak job frames")
	}
}
