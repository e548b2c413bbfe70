package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// The exhaustive stage-3 oracle. Production stage 3 is one path — every
// live target strand, pairs that cannot inject in either direction
// skipped, the live direction of half-dead pairs only, γ on the batched
// kernel at width vcp.GammaBatch, results memoized across queries. The
// oracle is the slow statement of the same computation: every
// (query strand, live target strand) pair inside the §5.5 size window,
// every direction the method reads, each through vcp.ComputeScalar (the
// scalar interpreter, target fingerprints included), no skipping and no
// cache. It shares decomposition, preparation and the stage-4
// reductions with production, so any divergence it finds is a stage-3
// divergence.
//
// While it runs, the oracle also audits the injectability rule: a
// direction production skips as dead must score exactly 0 with 0 γ, or
// the skip would have changed a score. And it charges work the way the
// engine's memo cache does — each (query strand, target strand,
// direction) once per database — so its counts are directly comparable
// to DBStats.

// oracle runs exhaustive reference queries against one database's
// current corpus.
type oracle struct {
	db   *DB
	seen map[oracleDir]bool // directions already charged, as the memo cache would hold them
	work oracleWork
}

type oracleDir struct {
	q, t string // canonical strand keys
	rev  bool
}

// oracleWork is the oracle's account of stage-3 work. The first-seen
// fields count each direction once per database, mirroring the memo
// cache; the per-query fields count every query afresh, as production
// does for work it never caches.
type oracleWork struct {
	directions int // first-seen directions inside the size window (what an unfiltered loop runs)
	live       int // ... of which injectability-live: production's verifier calls
	gamma      int // γ over those directions
	capped     int // ... and how many of them ended at the γ cap
	skipped    int // per query: pairs dead in both directions (production's LSHPairsSkipped)
	unsound    []string
}

func newOracle(db *DB) *oracle {
	return &oracle{db: db, seen: map[oracleDir]bool{}}
}

// query answers p the exhaustive way under method m (S-VCP computes the
// reverse direction too, as in production).
func (o *oracle) query(t *testing.T, p *asm.Proc, m stats.Method) *Report {
	t.Helper()
	qc := o.db.snapshotConfig()
	reverse := needsReverse(m)
	kept, nBlocks, err := decompose(p, qc.opts)
	if err != nil {
		t.Fatalf("oracle: decompose %s: %v", p.Name, err)
	}
	var preps []*vcp.Prepared
	var weights []float64
	index := map[string]int{}
	for _, s := range kept {
		key := s.CanonicalKey()
		if i, ok := index[key]; ok {
			weights[i]++
			continue
		}
		prep := vcp.Prepare(s, qc.opts.VCP)
		if prep.Err() != nil {
			t.Fatalf("oracle: prepare query strand: %v", prep.Err())
		}
		index[key] = len(preps)
		preps = append(preps, prep)
		weights = append(weights, 1)
	}
	ratio := qc.opts.VCP.SizeRatio
	if ratio <= 0 {
		ratio = vcp.Default().SizeRatio
	}

	rows := make([][]float64, len(preps))
	var revRows [][]float64
	if reverse {
		revRows = make([][]float64, len(preps))
	}
	for i, q := range preps {
		qSum := sketch.InputSummary(q.S)
		rows[i] = make([]float64, len(qc.uniq))
		if reverse {
			revRows[i] = make([]float64, len(qc.uniq))
		}
		for j, u := range qc.uniq {
			if qc.counts[j] == 0 {
				continue // every owning target tombstoned
			}
			if q.Key() == u.Key() {
				rows[i][j] = 1
				if reverse {
					revRows[i][j] = 1
				}
				continue
			}
			uSum := sketch.InputSummary(u.S)
			fwdLive, revLive := qSum.Injects(uSum), uSum.Injects(qSum)
			if !fwdLive && !revLive {
				o.work.skipped++
			}
			if !vcp.SizeCompatible(q.S, u.S, ratio) {
				continue
			}
			rows[i][j] = o.direction(q, u, false, fwdLive)
			if reverse {
				revRows[i][j] = o.direction(u, q, true, revLive)
			}
		}
	}

	qp := &QueryPartial{
		QueryName:  p.Name,
		Source:     p.Source,
		NumBlocks:  nBlocks,
		NumStrands: len(kept),
		SigmoidK:   qc.opts.SigmoidK,
		HasSVCP:    reverse,
		Weights:    weights,
	}
	reduceRows(qp, &qc, rows, revRows)
	return qp.FinalizeOrder(qc.counts, qc.h0Order)
}

// direction computes VCP(a, b) on the scalar reference and charges it
// on first sight. live is the injectability verdict production acts on.
func (o *oracle) direction(a, b *vcp.Prepared, rev, live bool) float64 {
	v, st := vcp.ComputeScalar(a, b, o.db.opts.VCP)
	if !live && (v != 0 || st.Correspondences != 0) {
		o.work.unsound = append(o.work.unsound,
			fmt.Sprintf("dead direction scores %v after %d γ", v, st.Correspondences))
	}
	key := oracleDir{q: a.Key(), t: b.Key(), rev: rev}
	if rev {
		key = oracleDir{q: b.Key(), t: a.Key(), rev: true}
	}
	if o.seen[key] {
		return v
	}
	o.seen[key] = true
	o.work.directions++
	if live {
		o.work.live++
		o.work.gamma += st.Correspondences
		if st.Capped {
			o.work.capped++
		}
	}
	return v
}

// requireOracleMatch fails unless got ranks and scores every method the
// oracle report carries Float64bits-identically to it.
func requireOracleMatch(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.HasSVCP != want.HasSVCP {
		t.Fatalf("%s: HasSVCP %t, oracle %t", label, got.HasSVCP, want.HasSVCP)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, oracle %d", label, len(got.Results), len(want.Results))
	}
	var diffs []string
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Target.Name != w.Target.Name ||
			math.Float64bits(g.GES) != math.Float64bits(w.GES) ||
			math.Float64bits(g.SLOG) != math.Float64bits(w.SLOG) ||
			math.Float64bits(g.SVCP) != math.Float64bits(w.SVCP) {
			diffs = append(diffs, fmt.Sprintf("  rank %3d: %-52s GES=%x SLOG=%x SVCP=%x | oracle %-52s GES=%x SLOG=%x SVCP=%x",
				i, g.Target.Name, math.Float64bits(g.GES), math.Float64bits(g.SLOG), math.Float64bits(g.SVCP),
				w.Target.Name, math.Float64bits(w.GES), math.Float64bits(w.SLOG), math.Float64bits(w.SVCP)))
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("%s: %d results diverge from the oracle:\n%s", label, len(diffs), strings.Join(diffs[:min(8, len(diffs))], "\n"))
	}
	methods := []stats.Method{stats.Esh, stats.SLOG}
	if want.HasSVCP {
		methods = append(methods, stats.SVCP)
	}
	for _, m := range methods {
		if rankingNames(got, m) != rankingNames(want, m) {
			t.Fatalf("%s: %v ranking diverges from the oracle", label, m)
		}
	}
}

// diffFixture is the differential corpus (three toolchains, patched
// variants) indexed once by a default production database, with the
// first three vulnerability queries answered by it and by the oracle.
// The tests below each check one family of quantities against it, so
// the expensive exhaustive run happens once per test binary.
type diffFixture struct {
	procs   []*asm.Proc
	queries []*asm.Proc
	db      *DB
	got     []*Report // production, stats.SVCP
	want    []*Report // oracle, stats.SVCP
	work    oracleWork
}

var (
	diffOnce sync.Once
	diffFix  *diffFixture
	diffErr  error
)

func loadDiffFixture(t *testing.T) *diffFixture {
	t.Helper()
	if testing.Short() {
		t.Skip("the differential corpus is slow")
	}
	diffOnce.Do(func() {
		fx := &diffFixture{procs: buildDiffCorpus(t)}
		qtc, _ := compile.ByName("clang-3.5")
		for _, v := range corpus.Vulns()[:3] {
			q, err := corpus.CompileVuln(v, qtc, false)
			if err != nil {
				diffErr = fmt.Errorf("compile query %s: %w", v.Alias, err)
				return
			}
			fx.queries = append(fx.queries, q)
		}
		fx.db = NewDB(Options{})
		fillDB(t, fx.db, fx.procs)
		o := newOracle(fx.db)
		for _, q := range fx.queries {
			rep, err := fx.db.Query(q)
			if err != nil {
				diffErr = fmt.Errorf("query %s: %w", q.Name, err)
				return
			}
			fx.got = append(fx.got, rep)
			fx.want = append(fx.want, o.query(t, q, stats.SVCP))
		}
		fx.work = o.work
		diffFix = fx
	})
	if diffErr != nil {
		t.Fatal(diffErr)
	}
	if diffFix == nil {
		t.Fatal("differential fixture failed to build")
	}
	return diffFix
}
