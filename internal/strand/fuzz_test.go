package strand

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/lift"
)

// decomposeKeys runs the front half of the engine — asm.Parse → CFG →
// lifting → strand decomposition, plus the §6.6 path strands over
// two-block paths — and returns every strand's canonical key, per
// procedure, in decomposition order. Stages may reject input with an
// error; that ends the procedure's keys.
func decomposeKeys(src string) [][]string {
	procs, err := asm.Parse(src)
	if err != nil {
		return nil
	}
	var out [][]string
	for _, p := range procs {
		var keys []string
		g, err := cfg.Build(p)
		if err != nil {
			out = append(out, keys)
			continue
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			out = append(out, keys)
			continue
		}
		for _, s := range FromProc(lp) {
			keys = append(keys, s.CanonicalKey())
		}
		if len(g.Blocks) <= 12 {
			if paths, err := lift.LiftPaths(g, 2); err == nil {
				for _, pb := range paths {
					for _, s := range FromBlock(p.Name, pb) {
						keys = append(keys, s.CanonicalKey())
					}
				}
			}
		}
		out = append(out, keys)
	}
	return out
}

// FuzzDecompose feeds arbitrary text through the query decomposition
// path that /v1/query runs on untrusted asm. Every stage must reject bad
// input with an error, never a panic, and the strands must be
// deterministic: decomposing the same text twice yields the same
// canonical keys in the same order (row order and the VCP cache both
// depend on it).
func FuzzDecompose(f *testing.F) {
	seeds := []string{
		`proc checksum_gcc
	xor eax, eax
	mov rcx, rdi
	lea rdx, [rsi+rsi*2]
	shl rdx, 2
	add rdx, 0x20
	imul rcx, rdx
	mov rax, rcx
	shr rax, 7
	xor rax, rcx
	ret
endp`,
		`proc strlen_like
	xor eax, eax
	mov rdx, rdi
top:
	movzx ecx, byte [rdx]
	test rcx, rcx
	je done
	add rdx, 1
	add rax, 1
	cmp rax, 0x1000
	jb top
done:
	ret
endp`,
		`proc save_pair
	mov [rdi], rsi
	mov [rdi+8], rdx
	mov rax, rsi
	add rax, rdx
	mov [rdi+16], rax
	call helper
	ret
endp`,
		"proc empty\nendp",
		"proc a\n\tjmp a\nendp\nproc b\n\tret\nendp",
		"proc bad\n\tmov rax,\nendp",
		"proc deep\n" + strings.Repeat("\tadd rax, rbx\n", 200) + "\tret\nendp",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first := decomposeKeys(src)
		second := decomposeKeys(src)
		if len(first) != len(second) {
			t.Fatalf("procedure count %d then %d", len(first), len(second))
		}
		for i := range first {
			if strings.Join(first[i], "\n") != strings.Join(second[i], "\n") {
				t.Fatalf("procedure %d decomposed differently on a second run:\n%q\n%q", i, first[i], second[i])
			}
		}
	})
}
