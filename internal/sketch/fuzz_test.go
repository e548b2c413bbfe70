package sketch

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// strandFromText builds a strand from ';'-separated IVL expression
// texts: each parseable chunk becomes one SSA assignment v0, v1, ...;
// free variables not defined earlier become strand inputs. It returns
// nil when no chunk parses.
func strandFromText(src string) *strand.Strand {
	s := &strand.Strand{ProcName: "fuzz"}
	defined := map[string]bool{}
	inputs := map[string]bool{}
	for _, chunk := range strings.Split(src, ";") {
		e, err := ivl.ParseExpr(chunk)
		if err != nil {
			continue
		}
		ivl.WalkVars(e, func(v ivl.Var) {
			if !defined[v.Name] && !inputs[v.Name] {
				inputs[v.Name] = true
				s.Inputs = append(s.Inputs, v)
			}
		})
		dst := ivl.Var{Name: "v" + strconv.Itoa(len(s.Stmts)), Type: ivl.Int}
		s.Stmts = append(s.Stmts, ivl.Assign(dst, e))
		defined[dst.Name] = true
	}
	if len(s.Stmts) == 0 {
		return nil
	}
	return s
}

// FuzzSketch asserts the sketch invariants the filters depend on for
// any valid strand: Compute is deterministic, the signature is exactly
// Bands*Rows long with no panics, Features is deterministic and
// strictly sorted, and a strand in a retrieval table is always a
// candidate of its own summary — by the brute-force rule (band
// collision ∩ injectability) and by Probe alike (self-recall — without
// it, identical strands could be filtered away).
func FuzzSketch(f *testing.F) {
	f.Add("(a + b)")
	f.Add("(x * 0x21); (v0 ^ (v0 >>u 0x7)); load64(m, (p + 0x8))")
	f.Add("ite((a <u b), a, b); store32(m, p, trunc32(v1))")
	f.Add("call/2(x, y); sext8(trunc8(v0)); not(v1)")
	f.Add("0x0")
	f.Add(";;;")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return // bound feature-walk cost, not a correctness limit
		}
		s := strandFromText(src)
		if s == nil {
			return
		}
		for _, cfg := range []Config{{}, {Bands: 4, Rows: 2}} {
			sig := Compute(s, cfg)
			if len(sig) != cfg.Len() {
				t.Fatalf("signature length %d, want %d", len(sig), cfg.Len())
			}
			if again := Compute(s, cfg); !reflect.DeepEqual(sig, again) {
				t.Fatal("Compute is not deterministic")
			}
			feats := Features(s)
			for i := 1; i < len(feats); i++ {
				if feats[i-1] >= feats[i] {
					t.Fatal("features not strictly sorted")
				}
			}
			sum := FromFeatureSet(s, feats, cfg)
			if !reflect.DeepEqual(sum.Sig, sig) {
				t.Fatal("FromFeatureSet signature diverges from Compute")
			}
			if !sum.Injects(sum) {
				t.Fatal("summary does not inject into itself")
			}
			if !bruteCandidate(cfg, sum, sum) {
				t.Fatal("strand is not a brute-force candidate of its own summary")
			}
			rx := BuildRetrieval([]Summary{sum}, cfg)
			if ids, _ := rx.Probe(sum, make([]bool, 1), nil); len(ids) != 1 || ids[0] != 0 {
				t.Fatalf("strand does not retrieve itself: probe returned %v", ids)
			}
		}
	})
}
