package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/stats"
	"repro/internal/vcp"
)

func buildDiffCorpus(t *testing.T) []*asm.Proc {
	t.Helper()
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5", "icc-15.0.1"} {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{
		Toolchains:     tcs,
		IncludePatched: true,
		SynthVariants:  0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func fillDB(t *testing.T, db *DB, procs []*asm.Proc) {
	t.Helper()
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatalf("index %s: %v", p.Name, err)
		}
	}
}

func rankingNames(rep *Report, m stats.Method) string {
	var b strings.Builder
	for _, ts := range rep.Rank(m) {
		b.WriteString(ts.Target.Name)
		b.WriteByte('\n')
	}
	return b.String()
}

// The differential tests below hold the production stage 3 to the
// exhaustive scalar oracle (oracle_test.go) on the differential corpus,
// each for one family of quantities: scores and rankings, the
// injectability skip, the evaluation kernel, and γ-batching.

// TestPrefilterDifferential audits the injectability skip: every
// direction production skips must score exactly zero (the oracle
// checks each one), the skip must save at least 30% of the verifier
// calls an unfiltered loop makes, and the counts of skipped pairs and
// of verifier calls must equal the oracle's exactly.
func TestPrefilterDifferential(t *testing.T) {
	fx := loadDiffFixture(t)
	for i, q := range fx.queries {
		requireOracleMatch(t, q.Name, fx.got[i], fx.want[i])
	}
	w := fx.work
	if len(w.unsound) > 0 {
		t.Errorf("%d skipped directions have nonzero true VCP:\n  %s",
			len(w.unsound), strings.Join(w.unsound[:min(5, len(w.unsound))], "\n  "))
	}
	st := fx.db.Stats()
	if st.VerifierCalls != uint64(w.live) {
		t.Errorf("verifier calls %d, oracle counts %d live directions", st.VerifierCalls, w.live)
	}
	if st.LSHPairsSkipped != uint64(w.skipped) {
		t.Errorf("pairs skipped %d, oracle counts %d dead both ways", st.LSHPairsSkipped, w.skipped)
	}
	if w.directions == 0 {
		t.Fatal("the oracle ran no verifier directions; the harness is vacuous")
	}
	t.Logf("verifier calls: exhaustive=%d production=%d (%.1f%% saved; %d pairs skipped, %d dead directions)",
		w.directions, st.VerifierCalls, 100*(1-float64(st.VerifierCalls)/float64(w.directions)),
		st.LSHPairsSkipped, st.LSHDeadDirections)
	if float64(st.VerifierCalls) > 0.7*float64(w.directions) {
		t.Errorf("the injectability skip saved too little verifier work: %d calls vs %d exhaustive (want <= 70%%)",
			st.VerifierCalls, w.directions)
	}
}

// TestKernelDifferential pins that the batched kernel is an
// optimisation, not a new verifier: rankings and raw scores of all three
// methods, γ counts and γ-cap counts equal the scalar oracle's, and the
// kernel telemetry shows the batched engine engaged (γ time attributed
// to the kernel, a nonzero instruction prefix hoisted).
func TestKernelDifferential(t *testing.T) {
	fx := loadDiffFixture(t)
	for i, q := range fx.queries {
		requireOracleMatch(t, q.Name, fx.got[i], fx.want[i])
	}
	st := fx.db.Stats()
	if st.VerifierCorrespondences != uint64(fx.work.gamma) {
		t.Errorf("γ counts diverge: production=%d oracle=%d", st.VerifierCorrespondences, fx.work.gamma)
	}
	if st.GammaCapped != uint64(fx.work.capped) {
		t.Errorf("γ-capped directions diverge: production=%d oracle=%d", st.GammaCapped, fx.work.capped)
	}
	if st.KernelNanos == 0 {
		t.Error("kernel time telemetry not recorded")
	}
	if st.KernelInstrs == 0 || st.KernelPrefixInstrs == 0 {
		t.Errorf("hoisting telemetry empty: prefix=%d total=%d", st.KernelPrefixInstrs, st.KernelInstrs)
	}
	t.Logf("%d γ, %.1fms in the kernel; hoisted %d/%d instrs (%.1f%%)",
		st.VerifierCorrespondences, float64(st.KernelNanos)/1e6,
		st.KernelPrefixInstrs, st.KernelInstrs, 100*float64(st.KernelPrefixInstrs)/float64(st.KernelInstrs))
}

// TestGammaBatchDifferential is the end-to-end γ-batch guard: the width
// only changes how many correspondences ride in one kernel dispatch, so
// production at width vcp.GammaBatch must count γ exactly as the scalar
// oracle does, and the batch accounting must be consistent with the
// width (every flush carries at least one and at most vcp.GammaBatch
// rows). The other widths are pinned inside package vcp.
func TestGammaBatchDifferential(t *testing.T) {
	fx := loadDiffFixture(t)
	st := fx.db.Stats()
	if st.VerifierCorrespondences != uint64(fx.work.gamma) {
		t.Errorf("γ count %d diverges from the oracle's %d", st.VerifierCorrespondences, fx.work.gamma)
	}
	if st.GammaBatches == 0 {
		t.Fatal("batch telemetry not recorded")
	}
	if st.GammaBatchRows < st.GammaBatches {
		t.Errorf("%d rows < %d batches", st.GammaBatchRows, st.GammaBatches)
	}
	if st.GammaBatchRows > st.GammaBatches*vcp.GammaBatch {
		t.Errorf("%d rows over %d batches exceeds the width %d", st.GammaBatchRows, st.GammaBatches, vcp.GammaBatch)
	}
	t.Logf("%d γ over %d batches (%d rows, mean occupancy %.2f)",
		st.VerifierCorrespondences, st.GammaBatches, st.GammaBatchRows,
		float64(st.GammaBatchRows)/float64(st.GammaBatches*vcp.GammaBatch))
}
