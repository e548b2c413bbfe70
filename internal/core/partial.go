package core

import (
	"sort"

	"repro/internal/asm"
	"repro/internal/stats"
)

// QueryPartial is one database's half-finished view of a query: the
// output of every pipeline stage whose result is exact under sharding,
// stopping just short of the one quantity that is not — the corpus-wide
// H0 estimate. A shard returns its QueryPartial (serialized by the
// server layer); a coordinator splices the shards' rows and reductions
// back into the union corpus's strand order and calls Finalize with the
// union counts, running the same float operations in the same order a
// single node holding the whole corpus would.
//
// Exactness under sharding, piece by piece:
//
//   - Rows: VCP(query strand, target strand) is a per-pair computation;
//     a shard computes exactly the columns for the strands it holds,
//     bitwise equal to the same columns on a single node (the
//     injectability skip and the band-collision probe are per-pair
//     deterministic).
//   - PartialScore.MaxVCP: a max over the target's own strands — every
//     input lives on the target's shard.
//   - PartialScore.SVCP (S-VCP queries only): a sum over the target's
//     own strands of maxRev[j], where maxRev[j] is a max over *query*
//     strands of VCP(target strand j, query strand) — and every shard
//     runs the full query, so maxRev[j] is exact on the shard holding j.
//   - H0 (the part deferred to Finalize): a corpus-weighted mean over
//     ALL unique strands in index order. Floating-point addition is not
//     associative, so per-shard partial sums would NOT merge
//     bit-identically; instead the coordinator rebuilds the dense
//     global rows and recomputes the mean in global order.
type QueryPartial struct {
	QueryName  string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int // query strands surviving the size filter
	// SigmoidK is the engine's Esh steepness override (0 = paper's
	// k=10); a coordinator must refuse to merge partials computed under
	// different k.
	SigmoidK float64
	// HasSVCP reports whether the reverse VCP direction ran, so
	// PartialScore.SVCP holds the S-VCP score. A coordinator must refuse
	// to merge partials that disagree on it.
	HasSVCP bool
	// Weights[i] is the multiplicity of unique query strand i (its LES
	// weight). Unique strands are in first-seen decomposition order,
	// which depends only on the query text — all databases handed the
	// same query agree on it, so rows merge by index.
	Weights []float64
	// Rows[i][j] = VCP(query strand i, target strand j), dense over
	// this database's unique-strand index order.
	Rows [][]float64
	// Targets holds the exact per-target reductions, in index order.
	Targets []PartialScore
	// DataGeneration is the compaction generation the partial was
	// computed under; PendingWrites the number of uncompacted live
	// writes. A coordinator merging shard partials must refuse either
	// being nonzero: its manifest's union counts describe the shards'
	// generation-zero snapshots, so a drifted shard would finalize
	// against stale multiplicities and corrupt scores.
	DataGeneration uint64
	PendingWrites  int
}

// PartialScore is the shard-exact half of one target's score.
type PartialScore struct {
	Target *Target
	// SVCP is the paper's S-VCP score (exact per shard, see above); 0
	// and meaningless unless the partial's HasSVCP is set.
	SVCP float64
	// MaxVCP[i] is the best VCP(query strand i, t) over the target's
	// strands — the Pr(s_q|t) input of the LES.
	MaxVCP []float64
}

// Finalize turns the partial into a ranked Report by estimating H0 from
// the rows under the given per-strand corpus multiplicities (counts[j]
// weights Rows[i][j]; §3.3.2) and composing GES per method. It is a
// pure function of (qp, counts): the single-node Query path and a
// coordinator that reassembled global rows from shards call it with
// bit-identical inputs and therefore produce bit-identical scores and
// (stable-sorted) rankings.
func (qp *QueryPartial) Finalize(counts []int) *Report {
	return qp.FinalizeOrder(counts, nil)
}

// FinalizeOrder is Finalize with an explicit H0 accumulation order:
// order[k] is the index (into counts and each row) of the k-th strand to
// fold into the H0 mean. nil means index order — plain Finalize. The
// live write path uses it after tombstones: floating-point addition is
// order-sensitive, so bit-identity with a from-scratch rebuild of the
// surviving corpus requires replaying the rebuild's first-seen strand
// order, not the dirty index order with dead strands masked. Dead
// strands (counts 0) are simply absent from the order.
func (qp *QueryPartial) FinalizeOrder(counts []int, order []int32) *Report {
	evidence := make([]stats.StrandEvidence, len(qp.Weights))
	for i, w := range qp.Weights {
		h0 := stats.H0Accumulator{K: qp.SigmoidK}
		row := qp.Rows[i]
		if order == nil {
			for j, v := range row {
				h0.Add(v, counts[j])
			}
		} else {
			for _, j := range order {
				h0.Add(row[j], counts[j])
			}
		}
		evidence[i] = h0.Evidence(w)
	}
	rep := &Report{
		QueryName:  qp.QueryName,
		Source:     qp.Source,
		NumBlocks:  qp.NumBlocks,
		NumStrands: qp.NumStrands,
		Results:    make([]TargetScore, len(qp.Targets)),
		HasSVCP:    qp.HasSVCP,
	}
	for ti, ps := range qp.Targets {
		rep.Results[ti] = TargetScore{
			Target:  ps.Target,
			SVCP:    ps.SVCP,
			SLOG:    stats.GES(stats.SLOG, ps.MaxVCP, evidence),
			GES:     stats.GES(stats.Esh, ps.MaxVCP, evidence),
			HasSVCP: qp.HasSVCP,
		}
	}
	sort.SliceStable(rep.Results, func(i, j int) bool {
		return rep.Results[i].GES > rep.Results[j].GES
	})
	return rep
}
