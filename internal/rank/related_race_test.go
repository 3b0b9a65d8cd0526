package rank_test

import (
	"sync"
	"testing"

	"scholarrank/internal/core"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

// TestRelatedConcurrentWithEngineRerank is the sharing contract of the
// one in-CSR per network, for the race detector: related walks from
// several goroutines read the citation operator while two engines over
// the same network re-rank on pools of alternating size. Each engine
// binds its pool to a view of the operator; nothing reachable from
// another goroutine is written.
func TestRelatedConcurrentWithEngineRerank(t *testing.T) {
	cfg := gen.NewDefaultConfig(3000)
	cfg.Seed = 5
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(c.Store)
	ri, err := rank.NewRelatedIndex(net, rank.RelatedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ri.Related(1, 10)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				seed := int32(1)
				if i%2 == 1 {
					seed = int32(10 + g)
				}
				got, err := ri.Related(seed, 10)
				if err != nil {
					t.Error(err)
					return
				}
				if seed != 1 {
					continue
				}
				if len(got) != len(want) {
					t.Errorf("concurrent walk returned %d articles, want %d", len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent walk position %d: article %d, want %d", j+1, got[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			eng := core.NewEngine(net)
			for i := 0; i < 3; i++ {
				opts := core.DefaultOptions()
				opts.Workers = 1 + (e+i)%2
				if _, err := eng.Rank(opts); err != nil {
					t.Error(err)
					return
				}
			}
		}(e)
	}
	wg.Wait()
}
