// Command perfbench is the paper-scale benchmark of the Esh daemon. It
// builds the full corpus with the shipped eshcorpus, serves it with the
// shipped eshd, drives it over HTTP from one process with at most nproc
// connections, checks every answer, and prints its metrics. It passes the
// binaries only their shipped default flags.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload cold-search|warm-serve|live-writes \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (from a run with ?trace=1 on the
// queries) with --trace 1. The lines before it are a human-readable
// report and the machine stamp. Every result is also appended, stamped,
// to .bench_build/perfbench/results.jsonl;
//
//	perfbench -compare base.jsonl head.jsonl
//
// prints per-metric medians of two such files and refuses to compare
// results taken on different machines.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	invalid           []string // reasons the run measured something other than the daemon
	metrics           map[string]metric
	report            []string // extra rows for the human-readable report
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{v, unit}
}

// note adds one row to the human-readable report.
func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail counts one operation whose answer was wrong or missing.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// env is the configuration every workload runs under.
type env struct {
	bin     string // directory holding eshcorpus and eshd
	dir     string // scratch directory of this run
	seconds float64
	trace   bool
	conns   int // HTTP connections: nproc
	rng     *rand.Rand
	rec     *recorder
}

var workloads = map[string]func(*env) (*outcome, error){
	"cold-search": coldSearch,
	"warm-serve":  warmServe,
	"live-writes": liveWrites,
}

func main() {
	root := flag.String("root", ".", "repository root (the checkout being measured)")
	bin := flag.String("bin", "", "directory holding the built eshcorpus and eshd")
	commit := flag.String("commit", "none", "commit being measured, for the stamp")
	workload := flag.String("workload", "", "cold-search, warm-serve or live-writes")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: perfbench -compare base.jsonl head.jsonl")
		}
		if err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal("unknown --workload %q (cold-search, warm-serve, live-writes)", *workload)
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal("need -bin, --seconds > 0 and --trace 0 or 1")
	}

	work := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal("%v", err)
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fatal("%v", err)
	}
	e := &env{bin: *bin, dir: dir, seconds: *seconds, trace: *trace == 1,
		conns: runtime.NumCPU(), rng: rand.New(rand.NewSource(*seed)), rec: &recorder{t0: time.Now()}}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	out, err := run(e)
	killAll()
	if err == nil && e.trace {
		err = writeSpans(filepath.Join(work, fmt.Sprintf("trace-%s-%d.json", *workload, *seed)), e.rec)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal("%s: %v", *workload, err)
	}
	st := machineStamp(*root, *commit, *seed)
	correct := out.failed == 0 && len(out.invalid) == 0
	for _, why := range out.invalid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %s\n", why)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  trace %d  attempted %d  failed %d  fail_ratio %.4f  valid %v\n",
		*workload, *seed, *trace, out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)), len(out.invalid) == 0)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	for _, r := range out.report {
		fmt.Printf("  %s\n", r)
	}
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", stampJSON)

	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": out.metrics})
	if err != nil {
		fatal("%v", err)
	}
	rl := resultLine{Workload: *workload, Trace: e.trace, Stamp: st, Correct: correct, Metrics: out.metrics}
	if err := appendResult(filepath.Join(work, "results.jsonl"), rl); err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	killAll()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// stamp identifies the machine, toolchain and source a result came from.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
}

func machineStamp(root, commit string, seed int64) stamp {
	return stamp{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, SourceHash: sourceHash(root), Seed: seed}
}

// sameMachine reports whether two stamps come from comparable machines.
func (s stamp) sameMachine(o stamp) bool {
	return s.CPU == o.CPU && s.NProc == o.NProc && s.GOMAXPROCS == o.GOMAXPROCS && s.GoVersion == o.GoVersion
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the measured program's source (go.mod, cmd/ and
// internal/), which identifies it where the checkout has no git history.
func sourceHash(root string) string {
	h := sha256.New()
	for _, top := range []string{"go.mod", "cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil // an unreadable entry changes the digest by its absence
			}
			f, err := os.Open(p)
			if err != nil {
				return nil
			}
			defer f.Close()
			rel, _ := filepath.Rel(root, p)
			fmt.Fprintf(h, "%s\x00", rel)
			_, _ = io.Copy(h, f)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

type resultLine struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Stamp    stamp             `json:"stamp"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
}

// appendResult adds one stamped result to the results file.
func appendResult(path string, r resultLine) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, r *recorder) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// compareResults prints, per workload and metric, the medians of two
// result files and their ratio. It refuses when any two results come
// from different machines or toolchains.
func compareResults(w io.Writer, basePath, headPath string) error {
	var first *stamp
	load := func(path string) (map[string][]float64, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out := map[string][]float64{}
		for _, ln := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var r resultLine
			if err := json.Unmarshal([]byte(ln), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if first == nil {
				first = &r.Stamp
			} else if !first.sameMachine(r.Stamp) {
				return nil, fmt.Errorf("refusing to compare results from different machines: %+v vs %+v", *first, r.Stamp)
			}
			if !r.Correct {
				continue
			}
			for n, m := range r.Metrics {
				k := fmt.Sprintf("%s/trace=%v/%s", r.Workload, r.Trace, n)
				out[k] = append(out[k], m.Value)
			}
		}
		return out, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	head, err := load(headPath)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		if _, ok := head[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-48s %14s %14s %8s\n", "workload/metric", "base median", "head median", "ratio")
	for _, k := range keys {
		b, h := nearestRank(base[k], 50), nearestRank(head[k], 50)
		ratio := 0.0
		if b != 0 {
			ratio = h / b
		}
		fmt.Fprintf(w, "%-48s %14.6g %14.6g %8.3f  (n=%d/%d)\n", k, b, h, ratio, len(base[k]), len(head[k]))
	}
	return nil
}
