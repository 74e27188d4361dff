package jobwire

import (
	"context"
	"testing"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/kcenter"
	"dpc/internal/transport"
)

// pivotTap is a fleet that keeps the pivot the coordinator broadcasts.
type pivotTap struct {
	transport.Transport
	pivot []byte
}

func (p *pivotTap) Broadcast(round int, b []byte) error {
	if round == 1 {
		p.pivot = b
	}
	return p.Transport.Broadcast(round, b)
}

// BenchmarkPersistentSiteCenter times the site half of one (k,t)-center job
// (round 0's hull, round 1's preclustering) at one leaf shaped like the
// repo benchmark's fanin-tree leaves: 128 dim-2 points, k = 4, t = 128.
// "first" is a job on a site that has just connected, which traverses its
// shard (filling its distance cache on the way); "later" is every job
// after, which reads the traversal, and round 1's preclustering off its
// record, from the traversal memo, and asks for no distance.
//
//	go test ./internal/jobwire -run '^$' -bench PersistentSiteCenter
func BenchmarkPersistentSiteCenter(b *testing.B) {
	in := gen.Mixture(gen.MixtureSpec{N: 4096, K: 4, Dim: 2, OutlierFrac: 128.0 / 4096, Seed: 1})
	pts := dataio.SplitRoundRobin(in.Pts, 32)[0]
	blob, err := Encode(Job{Kind: KindPoint, Core: core.Config{K: 4, T: 128, Objective: core.Center}})
	if err != nil {
		b.Fatal(err)
	}
	site := func() func(int, []byte) (transport.Handler, error) {
		return Factory(SiteData{Pts: pts, Cache: persistentCache(pts), Trav: new(kcenter.TraversalMemo)})
	}
	// The pivot a one-site coordinator sends this leaf.
	h, err := site()(0, blob)
	if err != nil {
		b.Fatal(err)
	}
	j, _ := Decode(blob)
	tap := &pivotTap{Transport: transport.NewLoopback([]transport.Handler{h}, true)}
	if _, err := j.RunOver(context.Background(), tap, nil); err != nil {
		b.Fatal(err)
	}
	tap.Close()
	job := func(b *testing.B, factory func(int, []byte) (transport.Handler, error), id int) {
		h, err := factory(id, blob)
		if err == nil {
			_, err = h(0, nil)
		}
		if err == nil {
			_, err = h(1, tap.pivot)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			job(b, site(), 0)
		}
	})
	b.Run("later", func(b *testing.B) {
		factory := site()
		job(b, factory, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job(b, factory, i+1)
		}
	})
}
