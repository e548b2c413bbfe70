package sketch

import (
	"reflect"
	"testing"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// mkStrand builds a strand computing a small hash loop body.
func mkStrand(names ...string) *strand.Strand {
	// names lets tests alpha-rename without changing structure.
	n := func(i int) string { return names[i] }
	in := func(i int) ivl.Expr { return ivl.IntVar(n(i)) }
	v := func(i int) ivl.Var { return ivl.Var{Name: n(i), Type: ivl.Int} }
	return &strand.Strand{
		ProcName: "p",
		Inputs:   []ivl.Var{v(0), v(1)},
		Stmts: []ivl.Stmt{
			ivl.Assign(v(2), ivl.Bin(ivl.Mul, in(0), ivl.C(33))),
			ivl.Assign(v(3), ivl.Bin(ivl.Add, ivl.IntVar(n(2)), in(1))),
			ivl.Assign(v(4), ivl.Bin(ivl.Xor, ivl.IntVar(n(3)), ivl.Bin(ivl.LShr, ivl.IntVar(n(3)), ivl.C(7)))),
		},
	}
}

func TestComputeDeterministicAndAlphaInvariant(t *testing.T) {
	s1 := mkStrand("a", "b", "c", "d", "e")
	s2 := mkStrand("x9", "y7", "z1", "w2", "q3") // alpha-renamed, same structure

	sig1 := Compute(s1, Config{})
	sig1b := Compute(s1, Config{})
	sig2 := Compute(s2, Config{})

	if got, want := len(sig1), (Config{}).Len(); got != want {
		t.Fatalf("signature length = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(sig1, sig1b) {
		t.Error("Compute is not deterministic")
	}
	if !reflect.DeepEqual(sig1, sig2) {
		t.Error("alpha-renamed strands should share a signature")
	}
}

func TestFeaturesSortedAndStable(t *testing.T) {
	s := mkStrand("a", "b", "c", "d", "e")
	f1 := Features(s)
	f2 := Features(s)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("Features is not deterministic")
	}
	if len(f1) == 0 {
		t.Fatal("no features for a non-empty strand")
	}
	for i := 1; i < len(f1); i++ {
		if f1[i-1] >= f1[i] {
			t.Fatalf("features not strictly sorted at %d", i)
		}
	}
}

func TestIndexSelfCandidate(t *testing.T) {
	// A strand in a retrieval table is always a candidate of its own
	// summary: identical signatures collide in every band.
	cfg := Config{}.Normalized()
	sum := Summarize(mkStrand("a", "b", "c", "d", "e"), cfg)
	rx := BuildRetrieval([]Summary{sum}, cfg)
	ids, sound := rx.Probe(sum, make([]bool, rx.Len()), nil)
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("probe of a strand's own summary = %v, want [0]", ids)
	}
	if sound != 1 {
		t.Errorf("injectability-live count = %d, want 1", sound)
	}
}

func TestIndexSoundCoreDropsTypeDeadPairs(t *testing.T) {
	// The injectability core of the probe rule drops a pair whose typed
	// inputs cannot inject either way — its VCP is exactly zero by
	// construction — even when the two strands collide in every band.
	// The hash loop retyped to (Mem, Int) inputs has the same features,
	// so the same signature, as the all-Int original.
	cfg := Config{}.Normalized()
	hash := Summarize(mkStrand("a", "b", "c", "d", "e"), cfg)
	retyped := mkStrand("p", "q", "r", "s", "t")
	retyped.Inputs[0].Type = ivl.Mem
	dead := Summarize(retyped, cfg)
	twin := Summarize(mkStrand("v", "w", "x", "y", "z"), cfg)
	if !reflect.DeepEqual(hash.Sig, dead.Sig) {
		t.Fatal("test premise broken: retyping an input changed the signature")
	}
	if hash.Injects(dead) || dead.Injects(hash) {
		t.Fatal("test premise broken: the retyped pair should be dead both ways")
	}

	rx := BuildRetrieval([]Summary{dead, twin}, cfg)
	ids, sound := rx.Probe(hash, make([]bool, rx.Len()), nil)
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("probe = %v, want only the live twin [1]", ids)
	}
	if sound != 1 {
		t.Errorf("injectability-live count = %d, want 1", sound)
	}
}

func TestConfigNormalized(t *testing.T) {
	c := Config{}.Normalized()
	if c.Bands != DefaultBands || c.Rows != DefaultRows {
		t.Fatalf("Normalized() = %+v", c)
	}
	if got := (Config{Bands: 4, Rows: 2}).Len(); got != 8 {
		t.Fatalf("Len() = %d, want 8", got)
	}
}

func TestEmptyStrandSignature(t *testing.T) {
	s := &strand.Strand{ProcName: "empty"}
	sig := Compute(s, Config{})
	sig2 := Compute(s, Config{})
	if !reflect.DeepEqual(sig, sig2) {
		t.Fatal("empty strand signature not deterministic")
	}
	if len(sig) != (Config{}).Len() {
		t.Fatalf("empty strand signature length %d", len(sig))
	}
}
