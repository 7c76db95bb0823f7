// Command bench is the repository's end-to-end benchmark. One process
// brings up a coordinator with two in-process workers (real loopback
// /ctl HTTP) and a gate on a loopback TCP listener, then drives a named
// workload through gate.Dial frame clients, checks every output it
// recorded, and reports end-to-end metrics — or, in a traced run, the
// per-layer ledger. See README.md.
//
// Run from the repository root (bash bench/run.sh builds and runs it):
//
//	bench -workload draw-32B -seed 1 -seconds 20 -trace 0   one workload
//	bench -seed 1                                           every workload
//	bench -compare a.json,b.json c.json,d.json              compare results
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// warmup is discarded before each measured window: caches fill and
// lazy set-up finishes first.
const warmup = 3 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 1, "seed for the session seeds and range offsets")
	seconds := fs.Float64("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run: spans, CPU profile and per-layer metrics instead of end-to-end ones")
	traceDir := fs.String("trace-dir", filepath.Join(buildDir, "trace"), "where a traced run writes spans, CPU profiles and ledgers")
	out := fs.String("out", "", "write the result file here (every-workload runs default to "+filepath.Join(buildDir, "result.json")+")")
	compare := fs.String("compare", "", "comma-separated result files of one side; the other side's files follow as the argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare wants the other side's result files as one argument")
			return 2
		}
		worse, err := runCompare(strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	opts := options{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		warmup:    warmup,
		setupReps: 5,
		trace:     *trace == 1,
		traceDir:  *traceDir,
	}
	if *name == "" {
		if *out == "" {
			*out = filepath.Join(buildDir, "result.json")
		}
		return runAll(opts, *out, stdout, stderr)
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	opts.workload = wl
	h := hostInfo(opts)
	rec, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hb)
	printRecord(stdout, wl.name, rec)
	if *out != "" {
		res := resultFile{Host: h, Workloads: map[string]*record{wl.name: rec}}
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(contractLine(rec, opts.trace))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// resultFile is what a run writes: the host block and one record per
// workload. -compare reads these.
type resultFile struct {
	Host      host               `json:"host"`
	Workloads map[string]*record `json:"workloads"`
}

// contract is the last line a single-workload run prints.
type contract struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine holds exactly correct, attempted, failed and the value and
// unit of every gated end-to-end metric, or, after a traced run, of
// every per-layer metric.
func contractLine(rec *record, traced bool) contract {
	c := contract{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]contractValue)}
	for k, m := range rec.Metrics {
		if traced || slices.Contains(endToEnd, k) {
			c.Metrics[k] = contractValue{m.Value, m.Unit}
		}
	}
	return c
}

// printRecord prints one "workload metric value unit n=<samples>" line
// per metric, then any verification errors.
func printRecord(w io.Writer, workload string, rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Metrics[k]
		label := k
		if k == "latency_tail_ms" {
			label = k + "(" + rec.Tail + ")"
		}
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", workload, label, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.N)
	}
	fmt.Fprintf(w, "%s correct=%v attempted=%d failed=%d\n", workload, rec.Correct, rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "%s error: %s\n", workload, e)
	}
}

// runAll runs every workload, each in a child process of its own so
// heap, goroutines and background refills never carry over from one
// workload to the next, and merges their results into one file.
func runAll(opts options, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	merged := resultFile{Workloads: make(map[string]*record)}
	code := 0
	for _, wl := range workloads {
		part := filepath.Join(filepath.Dir(out), "part-"+wl.name+".json")
		os.Remove(part) // a child that fails must not leave an older result in its place
		cmd := exec.Command(exe,
			"-workload", wl.name,
			"-seed", strconv.FormatInt(opts.seed, 10),
			"-seconds", strconv.FormatFloat(opts.window.Seconds(), 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[opts.trace],
			"-trace-dir", opts.traceDir,
			"-out", part)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			code = 1
		}
		res, err := readResult(part)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			code = 1
			continue
		}
		merged.Host = res.Host
		for k, rec := range res.Workloads {
			merged.Workloads[k] = rec
			printRecord(stdout, k, rec)
		}
	}
	if err := writeJSON(out, merged); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return code
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}
