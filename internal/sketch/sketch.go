// Package sketch implements the cheap syntactic filters the engine runs
// in front of the VCP verifier (stage 3), after the binary-similarity
// literature's hybrid designs (GitZ-style statistical prefiltering, Hu
// et al.'s filter-then-verify; see PAPERS.md). A strand is summarized
// once at index time into its typed input counts and a short MinHash
// signature over cheap syntactic features — operator bag, input and
// variable counts, constant set, and expression-tree shape shingles.
//
// Two filters use the summaries.
//
// Injectability (always on, exact): VCP requires a type-preserving
// injective correspondence that is total on the first strand's inputs,
// so VCP(a, b) is exactly 0 whenever a's typed input counts cannot
// inject into b's (Summary.Injects). The engine skips a pair that is
// dead in both directions and runs only the live direction of a
// half-dead pair; rankings are unchanged by construction.
//
// Band-collision retrieval (opt-in, Config.MinContainment > 0): the
// signatures are bucketed with banded locality-sensitive hashing into
// an immutable probe table (RetrievalIndex), and a query strand's
// candidates become the injectability-live strands that share at least
// one band bucket with it. This trades a small, measured recall loss
// (see the differential harness in internal/core) for per-query cost
// that no longer grows with the corpus, so it is opt-in.
//
// Everything here is deterministic: the same strand always produces the
// same signature (fixed seeds, no map-iteration dependence), so
// signatures can be persisted in index snapshots and recomputed at load
// time interchangeably.
package sketch

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// Defaults shape the signature (Bands×Rows hash functions). The banding
// puts the LSH S-curve threshold near Jaccard 0.3.
const (
	DefaultBands = 24
	DefaultRows  = 3
	// SuggestedMinContainment is the conventional setting that selects
	// the opt-in band-collision tier (any value above 0 does). It is
	// intentionally NOT the default: MinContainment = 0 keeps stage 3
	// exact.
	SuggestedMinContainment = 0.45
)

// Config shapes the MinHash signature and its LSH banding, and selects
// the band-collision tier.
type Config struct {
	// Bands is the number of LSH bands (0 selects DefaultBands).
	Bands int
	// Rows is the number of signature rows per band (0 selects
	// DefaultRows). The signature length is Bands*Rows.
	Rows int
	// MinContainment, when > 0, selects the band-collision tier: stage
	// 3 takes each query strand's candidates from the retrieval table's
	// probe instead of walking every strand. The value itself is not a
	// threshold; 0 (the default) keeps stage 3 exact.
	MinContainment float64
}

// Normalized fills in zero fields with the defaults. MinContainment is
// left alone: zero is a meaningful setting (band-collision tier off).
func (c Config) Normalized() Config {
	if c.Bands <= 0 {
		c.Bands = DefaultBands
	}
	if c.Rows <= 0 {
		c.Rows = DefaultRows
	}
	return c
}

// Len returns the signature length Bands*Rows.
func (c Config) Len() int {
	c = c.Normalized()
	return c.Bands * c.Rows
}

// Signature is a MinHash signature: one minimum per hash function.
type Signature []uint32

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit
// permutation used both to derive per-function seeds and as the hash
// family itself.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// multCap bounds the multiplicity encoding of bag features: the k-th
// occurrence of an operator is its own set element up to this many, so
// the set representation still reflects operator counts without letting
// one hot loop dominate the signature.
const multCap = 8

// Features returns the strand's feature set as 64-bit hashes. The set
// is deterministic and sorted; it underlies both the MinHash signature
// and (directly) tests. Feature classes:
//
//   - counts: number of inputs, log2-bucketed number of defined
//     variables ("nin:3", "nv:2")
//   - operator bag: every operator/builtin occurrence with multiplicity
//     up to multCap ("n:+#2", "n:load#1")
//   - constant set: every distinct constant value ("c:0x2a")
//   - shape shingles: one-level subtree shapes, child operators sorted
//     under commutative parents ("t:+(load,var)"), plus per-statement
//     root tokens with multiplicity ("r:store#1")
func Features(s *strand.Strand) []uint64 {
	set := map[string]bool{}
	set["nin:"+strconv.Itoa(len(s.Inputs))] = true
	set["nv:"+strconv.Itoa(log2bucket(len(s.Stmts)))] = true

	opCount := map[string]int{}
	rootCount := map[string]int{}
	addBag := func(m map[string]int, prefix, tok string) {
		m[tok]++
		if n := m[tok]; n <= multCap {
			set[prefix+tok+"#"+strconv.Itoa(n)] = true
		}
	}
	var walk func(e ivl.Expr)
	walk = func(e ivl.Expr) {
		tok, children, commutative := describe(e)
		if c, ok := e.(ivl.ConstExpr); ok {
			set["c:"+strconv.FormatUint(c.Val, 16)] = true
		}
		if tok != "var" && tok != "const" {
			addBag(opCount, "n:", tok)
		}
		if len(children) > 0 {
			parts := make([]string, len(children))
			for i, ch := range children {
				parts[i], _, _ = describe(ch)
			}
			if commutative {
				sort.Strings(parts)
			}
			set["t:"+tok+"("+strings.Join(parts, ",")+")"] = true
		}
		for _, ch := range children {
			walk(ch)
		}
	}
	for _, st := range s.Stmts {
		tok, _, _ := describe(st.Rhs)
		addBag(rootCount, "r:", tok)
		walk(st.Rhs)
	}

	out := make([]uint64, 0, len(set))
	for f := range set {
		out = append(out, hashString(f))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// describe returns a node's operator token, its children, and whether
// child order is insignificant.
func describe(e ivl.Expr) (tok string, children []ivl.Expr, commutative bool) {
	switch t := e.(type) {
	case ivl.VarExpr:
		return "var", nil, false
	case ivl.ConstExpr:
		return "const", nil, false
	case ivl.UnExpr:
		return "u" + t.Op.String(), []ivl.Expr{t.X}, false
	case ivl.BinExpr:
		return t.Op.String(), []ivl.Expr{t.X, t.Y}, t.Op.IsCommutative()
	case ivl.IteExpr:
		return "ite", []ivl.Expr{t.Cond, t.Then, t.Else}, false
	case ivl.TruncExpr:
		return "trunc" + strconv.Itoa(int(t.Bits)), []ivl.Expr{t.X}, false
	case ivl.SextExpr:
		return "sext" + strconv.Itoa(int(t.Bits)), []ivl.Expr{t.X}, false
	case ivl.LoadExpr:
		return "load", []ivl.Expr{t.Mem, t.Addr}, false
	case ivl.StoreExpr:
		return "store", []ivl.Expr{t.Mem, t.Addr, t.Val}, false
	case ivl.CallExpr:
		return t.Sym, t.Args, false
	}
	return "?", nil, false
}

func log2bucket(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Compute returns the strand's MinHash signature under cfg. It is a
// pure function of the strand's statements and inputs: two strands with
// equal feature sets share a signature. An empty strand (no statements)
// yields the all-max signature.
func Compute(s *strand.Strand, cfg Config) Signature {
	return FromFeatures(Features(s), cfg)
}

// Summary is everything the filters know about one strand: its MinHash
// signature (for band collisions) and its typed input counts (for the
// injectability test).
type Summary struct {
	Sig  Signature
	NInt int // inputs of bitvector type
	NMem int // inputs of memory type
}

// Summarize builds the strand's candidate-rule summary under cfg.
func Summarize(s *strand.Strand, cfg Config) Summary {
	feats := Features(s)
	return FromFeatureSet(s, feats, cfg)
}

// FromFeatureSet assembles a Summary from an already-extracted feature
// set, optionally adopting a persisted signature: when sig is non-nil
// and the right length it is used as-is instead of re-MinHashing (the
// snapshot-restore path).
func FromFeatureSet(s *strand.Strand, feats []uint64, cfg Config) Summary {
	return adoptSignature(s, feats, nil, cfg)
}

// AdoptSignature is FromFeatureSet with a persisted signature.
func AdoptSignature(s *strand.Strand, sig Signature, cfg Config) Summary {
	return adoptSignature(s, Features(s), sig, cfg)
}

func adoptSignature(s *strand.Strand, feats []uint64, sig Signature, cfg Config) Summary {
	if len(sig) != cfg.Len() {
		sig = FromFeatures(feats, cfg)
	}
	sum := InputSummary(s)
	sum.Sig = sig
	return sum
}

// InputSummary returns the strand's typed input counts as a Summary
// without a signature: all the injectability test reads.
func InputSummary(s *strand.Strand) Summary {
	var sum Summary
	for _, v := range s.Inputs {
		if v.Type == ivl.Mem {
			sum.NMem++
		} else {
			sum.NInt++
		}
	}
	return sum
}

// Injects reports whether a's typed inputs can inject into b's — the
// necessary condition for VCP(a, b) > 0: the correspondence γ must be
// injective, type-preserving, and total on a's inputs. When it fails,
// VCP(a, b) is exactly 0 and the verifier call can be skipped with no
// effect on any score.
func (a Summary) Injects(b Summary) bool {
	return a.NInt <= b.NInt && a.NMem <= b.NMem
}

// FromFeatures builds the MinHash signature of an explicit feature set.
func FromFeatures(feats []uint64, cfg Config) Signature {
	k := cfg.Len()
	sig := make(Signature, k)
	for i := range sig {
		sig[i] = math.MaxUint32
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = splitmix64(0x657368736b746368 + uint64(i)) // "eshsktch"
	}
	for _, f := range feats {
		for i := 0; i < k; i++ {
			if v := uint32(splitmix64(f^seeds[i]) >> 32); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}
