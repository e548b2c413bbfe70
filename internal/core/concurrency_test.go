package core

import (
	"sync"
	"testing"

	"repro/internal/sketch"
)

// TestReconfigureDuringQueries drives ConfigurePrefilter — sketch
// geometry changes, and the band-collision tier switching on and off —
// and SetWorkers concurrently with in-flight queries. Queries snapshot
// the configuration once at entry (snapshotConfig), so under -race this
// proves a live reconfiguration can neither tear a query's view nor
// race its reads; each query must still succeed and rank the similar
// target first.
func TestReconfigureDuringQueries(t *testing.T) {
	db := buildDB(t)
	q := parse(t, gccStyle)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reconfigure := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				step(i)
			}
		}()
	}
	reconfigure(func(i int) {
		geoms := [][2]int{{24, 3}, {12, 6}}
		db.ConfigurePrefilter(geoms[i%2][0], geoms[i%2][1], -1)
	})
	reconfigure(func(i int) {
		db.ConfigurePrefilter(0, 0, []float64{sketch.SuggestedMinContainment, 0}[i%2])
	})
	reconfigure(func(i int) { db.SetWorkers(1 + i%2) })

	const queriers, perQuerier = 4, 8
	var qwg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; i < perQuerier; i++ {
				rep, err := db.Query(q)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(rep.Results) != 2 || rep.Results[0].Target.Name != "checksum_icc" {
					t.Errorf("query under reconfiguration ranked %q first", rep.Results[0].Target.Name)
					return
				}
			}
		}()
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
}
