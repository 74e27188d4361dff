package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpc/internal/dataio"
	"dpc/internal/metric"
)

func stressPoints(n int, seed uint64) []metric.Point {
	pts := make([]metric.Point, n)
	x := seed
	for i := range pts {
		x = x*6364136223846793005 + 1442695040888963407
		pts[i] = metric.Point{float64(x % 997), float64((x >> 17) % 997)}
	}
	return pts
}

// TestRegistryConcurrentStress hammers the segmented registry from many
// goroutines at once — register/append/get/list/delete across segment
// boundaries, with snapshot reads racing appends — and then verifies the
// surviving datasets are intact. Run under -race in CI, this is the memory
// model proof of the segment/chunk design.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry(0)
	const (
		workers  = 8
		datasets = 24
		rounds   = 60
	)
	name := func(d int) string { return fmt.Sprintf("stress-%02d", d) }
	// Pre-register half the namespace so gets and appends have targets.
	for d := 0; d < datasets; d += 2 {
		if _, err := r.RegisterTable(name(d), stressPoints(16, uint64(d+1))); err != nil {
			t.Fatal(err)
		}
	}

	var snapshots atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w + 101)
			for i := 0; i < rounds; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				d := int(x % datasets)
				switch x % 5 {
				case 0:
					// Register (duplicates expected and fine).
					r.RegisterTable(name(d), stressPoints(16, x))
				case 1:
					// Append; the dataset may be deleted concurrently.
					r.Append(name(d), stressPoints(8, x))
				case 2:
					// Snapshot during appends: the view must be internally
					// consistent (every chunk fully visible, count exact).
					if ds, err := r.Get(name(d)); err == nil && ds.Kind() == KindTable {
						view, version := ds.snapshotTable()
						flat := view.Flatten()
						// What a job does next, racing the appends and
						// deletes around it.
						r.shardCaches(ds, version, dataio.SplitRoundRobin(flat, 2))
						if len(flat) != view.Len() {
							t.Errorf("snapshot flattens to %d points, Len says %d", len(flat), view.Len())
							return
						}
						for _, p := range flat {
							if p.Dim() != 2 {
								t.Errorf("snapshot exposed a torn point (dim %d)", p.Dim())
								return
							}
						}
						snapshots.Add(1)
					}
				case 3:
					r.List()
				case 4:
					if i%7 == 0 {
						r.Delete(name(d))
					} else if ds, err := r.Get(name(d)); err == nil {
						ds.Info()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if snapshots.Load() == 0 {
		t.Fatal("stress schedule took no snapshots; the race coverage is gone")
	}
	// Post-conditions: every surviving dataset is structurally sound and
	// point counts equal the sum of chunk lengths.
	for _, info := range r.List() {
		ds, err := r.Get(info.Name)
		if err != nil {
			t.Fatalf("listed dataset %q vanished: %v", info.Name, err)
		}
		view, _ := ds.snapshotTable()
		if got := len(view.Flatten()); got != view.Len() {
			t.Fatalf("dataset %q: flatten %d != len %d", info.Name, got, view.Len())
		}
		if view.Len()%8 != 0 {
			t.Fatalf("dataset %q holds %d points; appends are multiples of 8 over a 16-point base", info.Name, view.Len())
		}
	}
	// Whatever the interleaving, nothing stays pooled under a replaced
	// version or a deleted dataset.
	live := make(map[string]bool)
	for _, info := range r.List() {
		live[shardVersionPrefix(info.Name, info.Version)] = true
	}
	for _, e := range r.Pool().Entries() {
		if !live[e.Key[:strings.Index(e.Key, "/")+1]] {
			t.Fatalf("pool holds %q, which no live dataset version owns", e.Key)
		}
	}
}

// TestRegistrySnapshotStableUnderAppend pins the copy-free snapshot
// contract: a view taken before appends neither grows nor changes, while
// the registry advances underneath it.
func TestRegistrySnapshotStableUnderAppend(t *testing.T) {
	r := NewRegistry(0)
	base := stressPoints(10, 3)
	if _, err := r.RegisterTable("snap", base); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Get("snap")
	view, v1 := d.snapshotTable()
	before := view.Flatten()

	for i := 0; i < 5; i++ {
		if _, err := r.Append("snap", stressPoints(7, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if view.Len() != 10 || len(view.Flatten()) != 10 {
		t.Fatalf("old view grew to %d points", view.Len())
	}
	after := view.Flatten()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("point %d changed under the snapshot", i)
			}
		}
	}
	view2, v2 := d.snapshotTable()
	if view2.Len() != 10+5*7 {
		t.Fatalf("new view has %d points, want %d", view2.Len(), 10+5*7)
	}
	if v2 <= v1 {
		t.Fatalf("version did not advance across appends (%d -> %d)", v1, v2)
	}
}

// TestRegistrySegmentsCoverNamespace sanity-checks the hash placement:
// many names spread across more than one segment, and every one remains
// reachable by Get.
func TestRegistrySegmentsCoverNamespace(t *testing.T) {
	r := NewRegistry(0)
	touched := make(map[*segment]bool)
	for i := 0; i < 64; i++ {
		n := fmt.Sprintf("cover-%d", i)
		if _, err := r.RegisterTable(n, stressPoints(4, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		touched[r.seg(n)] = true
		if _, err := r.Get(n); err != nil {
			t.Fatalf("Get(%q) after register: %v", n, err)
		}
	}
	if len(touched) < 2 {
		t.Fatalf("64 names landed on %d segment(s); hashing is broken", len(touched))
	}
	if got := r.Count(); got != 64 {
		t.Fatalf("Count() = %d, want 64", got)
	}
}
