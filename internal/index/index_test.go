package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/vcp"
)

const gccStyle = `proc checksum_gcc
	xor eax, eax
	mov rcx, rdi
	lea rdx, [rsi+rsi*2]
	shl rdx, 2
	add rdx, 0x20
	imul rcx, rdx
	mov rax, rcx
	shr rax, 7
	xor rax, rcx
	mov r8, rax
	and r8, 0xff
	add rax, r8
	ret
endp`

const iccStyle = `proc checksum_icc
	xor r9d, r9d
	mov r10, rdi
	mov r11, rsi
	imul r11, 3
	imul r11, 4
	add r11, 0x20
	imul r10, r11
	mov rax, r10
	shr rax, 7
	xor rax, r10
	mov rbx, rax
	and rbx, 0xff
	add rax, rbx
	ret
endp`

const memStyle = `proc save_pair
	mov [rdi], rsi
	mov [rdi+8], rdx
	mov rax, rsi
	add rax, rdx
	mov [rdi+16], rax
	call helper
	ret
endp`

func parse(t *testing.T, src string) *asm.Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2})
	for _, src := range []string{iccStyle, memStyle} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func saveBytes(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip is the format's core guarantee: a reloaded DB produces
// bit-identical Query reports.
func TestRoundTrip(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)

	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumTargets() != db.NumTargets() || db2.NumUniqueStrands() != db.NumUniqueStrands() ||
		db2.TotalStrands() != db.TotalStrands() {
		t.Fatalf("reloaded shape %d/%d/%d, want %d/%d/%d",
			db2.NumTargets(), db2.NumUniqueStrands(), db2.TotalStrands(),
			db.NumTargets(), db.NumUniqueStrands(), db.TotalStrands())
	}

	for _, qsrc := range []string{gccStyle, memStyle} {
		r1, err := db.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		if r1.NumStrands != r2.NumStrands || r1.NumBlocks != r2.NumBlocks {
			t.Fatalf("query shape differs: %+v vs %+v", r1, r2)
		}
		if len(r1.Results) != len(r2.Results) {
			t.Fatalf("result count %d vs %d", len(r1.Results), len(r2.Results))
		}
		for i := range r1.Results {
			a, b := r1.Results[i], r2.Results[i]
			if a.Target.Name != b.Target.Name {
				t.Fatalf("rank %d: %s vs %s", i, a.Target.Name, b.Target.Name)
			}
			if a.GES != b.GES || a.SLOG != b.SLOG || a.SVCP != b.SVCP {
				t.Fatalf("rank %d (%s): scores (%v,%v,%v) vs (%v,%v,%v)",
					i, a.Target.Name, a.GES, a.SLOG, a.SVCP, b.GES, b.SLOG, b.SVCP)
			}
		}
	}
}

// TestRoundTripStable checks save→load→save produces identical bytes
// (the snapshot is a fixed point).
func TestRoundTripStable(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)
	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if snap2 := saveBytes(t, db2); !bytes.Equal(snap, snap2) {
		t.Fatal("snapshot is not a save/load fixed point")
	}
}

func TestOptionsPersist(t *testing.T) {
	db := core.NewDB(core.Options{
		VCP:               vcp.Config{MinVars: 3, SizeRatio: 0.25},
		SigmoidK:          7.5,
		PathLen:           2,
		RetrievalMaxDelta: 7,
	})
	if err := db.AddTarget(parse(t, iccStyle)); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(bytes.NewReader(saveBytes(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	got, want := db2.Options(), db.Options()
	if got.SigmoidK != want.SigmoidK || got.PathLen != want.PathLen ||
		got.VCP.MinVars != want.VCP.MinVars || got.VCP.SizeRatio != want.VCP.SizeRatio ||
		got.RetrievalMaxDelta != 7 {
		t.Fatalf("options %+v, want %+v", got, want)
	}
}

// rewriteOptions rewrites the options line of a snapshot through edit
// and re-seals the header, so a test can synthesize a snapshot another
// writer could have produced.
func rewriteOptions(t *testing.T, snap []byte, edit func(toks []string) []string) []byte {
	t.Helper()
	nl := bytes.IndexByte(snap, '\n')
	if nl < 0 {
		t.Fatal("snapshot has no header line")
	}
	lines := strings.Split(string(snap[nl+1:]), "\n")
	for i, ln := range lines {
		if tag, _, _ := strings.Cut(ln, " "); tag == "options" {
			lines[i] = strings.Join(edit(strings.Fields(ln)), " ")
		}
	}
	body := strings.Join(lines, "\n")
	sum := sha256.Sum256([]byte(body))
	return []byte(fmt.Sprintf("%s %d %d %s\n%s", Magic, Version, len(body), hex.EncodeToString(sum[:]), body))
}

// retiredOptionKeys are the option keys of the engine modes that no
// longer exist, at the non-default values an old writer could emit.
var retiredOptionKeys = []string{"prefilter=off", "kernel=scalar", "retrieval=probe", "gammabatch=1"}

// TestGammaBatchOptionCompat: snapshots written while the engine had
// selectable modes carry their option keys (gammabatch, prefilter,
// kernel, retrieval). They must still load, answer Float64bits-
// identically to a fresh build of the same corpus (none of the modes
// ever changed a ranking), and re-save without the keys — the same
// bytes a fresh build saves.
func TestGammaBatchOptionCompat(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	for _, key := range retiredOptionKeys {
		name, _, _ := strings.Cut(key, "=")
		if bytes.Contains(snap, []byte(" "+name+"=")) {
			t.Fatalf("a fresh snapshot still writes the retired %s key", name)
		}
	}
	old := rewriteOptions(t, snap, func(toks []string) []string { return append(toks, retiredOptionKeys...) })

	db2, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("load a snapshot with retired option keys: %v", err)
	}
	compareQueries(t, buildDB(t), db2)
	if resaved := saveBytes(t, db2); !bytes.Equal(resaved, snap) {
		t.Fatal("re-saving a snapshot with retired option keys does not reproduce a fresh snapshot")
	}
}

func TestTruncatedRejected(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	for _, cut := range []int{len(snap) / 2, len(snap) - 1} {
		_, err := Load(bytes.NewReader(snap[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestCorruptedRejected(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	// Flip one byte deep in the body: must fail the checksum, never
	// parse successfully.
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	_, err := Load(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	for _, src := range []string{
		"",
		"notanindex 1 0 aa\n",
		"eshidx 999 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
		"eshidx one two three\n",
	} {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Fatalf("header %q accepted", src)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := buildDB(t)
	path := t.TempDir() + "/corpus.eshidx"
	if err := SaveFile(path, db); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumTargets() != db.NumTargets() {
		t.Fatalf("targets %d, want %d", db2.NumTargets(), db.NumTargets())
	}
}

// buildProbeDB is buildDB with the band-collision tier on, which makes
// Export carry the probe table once it is built, so the snapshot
// exercises the version-4 retrieval section.
func buildProbeDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, LSHMinContainment: sketch.SuggestedMinContainment})
	for _, src := range []string{iccStyle, memStyle} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestRetrievalTableRoundTrip checks the version-4 retrieval section:
// a band-collision save persists the table, a load adopts it
// byte-for-byte (same slab checksum as the builder produced) before any
// query runs, and the re-saved snapshot is a fixed point.
func TestRetrievalTableRoundTrip(t *testing.T) {
	db := buildProbeDB(t)
	want := db.RetrievalIndex().Checksum()
	snap := saveBytes(t, db)

	ex, err := LoadExport(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Retrieval == nil {
		t.Fatal("band-collision snapshot did not persist the retrieval table")
	}
	if ex.Retrieval.N != len(ex.Strands) {
		t.Fatalf("persisted table covers %d strands, snapshot has %d", ex.Retrieval.N, len(ex.Strands))
	}
	if ex.Retrieval.Checksum != want {
		t.Fatalf("persisted table checksum %016x, builder produced %016x", ex.Retrieval.Checksum, want)
	}

	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Stats().RetrievalTableBuckets == 0 {
		t.Fatal("load did not adopt the retrieval table before the first query")
	}
	if got := db2.RetrievalIndex().Checksum(); got != want {
		t.Fatalf("adopted table checksum %016x, want %016x", got, want)
	}
	if snap2 := saveBytes(t, db2); !bytes.Equal(snap, snap2) {
		t.Fatal("band-collision snapshot is not a save/load fixed point")
	}
	compareQueries(t, db, db2)
}

// downgrade rewrites a current-version snapshot as an older format:
// it strips the sections that version did not have and recomputes the
// header. This is how the compat tests synthesize
// genuine old snapshots without checking in binary fixtures.
func downgrade(t *testing.T, snap []byte, version int) []byte {
	t.Helper()
	nl := bytes.IndexByte(snap, '\n')
	if nl < 0 {
		t.Fatal("snapshot has no header line")
	}
	var out []string
	for _, ln := range strings.Split(string(snap[nl+1:]), "\n") {
		tag, _, _ := strings.Cut(ln, " ")
		switch {
		case version < 5 && tag == "wal":
			continue
		case version < 4 && (tag == "retrieval" || tag == "rd" || tag == "rk" || tag == "ro" || tag == "ri"):
			continue
		case version < 3 && (tag == "shard" || tag == "mults" || tag == "m"):
			continue
		}
		out = append(out, ln)
	}
	body := strings.Join(out, "\n")
	sum := sha256.Sum256([]byte(body))
	return []byte(fmt.Sprintf("%s %d %d %s\n%s", Magic, version, len(body), hex.EncodeToString(sum[:]), body))
}

// TestOldVersionsLoad checks that version-2 and version-3 snapshots
// (no retrieval section, and for v2 no shard/multiplicity records)
// still load, and that the probe table rebuilt from their strands is
// identical to the one a current snapshot persists — so band-collision
// answers do not depend on the snapshot's age.
func TestOldVersionsLoad(t *testing.T) {
	db := buildProbeDB(t)
	want := db.RetrievalIndex().Checksum()
	snap := saveBytes(t, db)

	for _, v := range []int{2, 3} {
		old := downgrade(t, snap, v)
		ex, err := LoadExport(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("load v%d export: %v", v, err)
		}
		if ex.Retrieval != nil {
			t.Fatalf("v%d snapshot decoded a retrieval table it cannot contain", v)
		}
		db2, err := Load(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("load v%d: %v", v, err)
		}
		if db2.Stats().RetrievalTableBuckets == 0 {
			t.Fatalf("v%d: load did not rebuild the retrieval table before the first query", v)
		}
		if db2.NumTargets() != db.NumTargets() || db2.NumUniqueStrands() != db.NumUniqueStrands() {
			t.Fatalf("v%d: reloaded shape %d/%d, want %d/%d", v,
				db2.NumTargets(), db2.NumUniqueStrands(), db.NumTargets(), db.NumUniqueStrands())
		}
		if got := db2.RetrievalIndex().Checksum(); got != want {
			t.Fatalf("v%d: rebuilt table checksum %016x, persisted-table build %016x", v, got, want)
		}
		compareQueries(t, db, db2)
	}
}

// compareQueries runs the shared query set against both databases and
// demands identical rankings and scores.
func compareQueries(t *testing.T, db, db2 *core.DB) {
	t.Helper()
	for _, qsrc := range []string{gccStyle, memStyle} {
		r1, err := db.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Results) != len(r2.Results) {
			t.Fatalf("result count %d vs %d", len(r1.Results), len(r2.Results))
		}
		for i := range r1.Results {
			a, b := r1.Results[i], r2.Results[i]
			if a.Target.Name != b.Target.Name || math.Float64bits(a.GES) != math.Float64bits(b.GES) ||
				math.Float64bits(a.SLOG) != math.Float64bits(b.SLOG) || math.Float64bits(a.SVCP) != math.Float64bits(b.SVCP) {
				t.Fatalf("rank %d: (%s %v %v %v) vs (%s %v %v %v)",
					i, a.Target.Name, a.GES, a.SLOG, a.SVCP, b.Target.Name, b.GES, b.SLOG, b.SVCP)
			}
		}
	}
}
