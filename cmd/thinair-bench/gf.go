package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/gf"
)

// The GF kernel benchmark formatter: runs AddMulBE16 — every payload
// combination the protocol makes, on wire-order rows — over a matrix of
// row lengths and source counts, and writes the results as JSON
// (BENCH_gf.json in CI), with the host they were measured on.
//
// Each shape has three arms. "dispatch" runs AddMulBE16 on the route the
// arch-dispatch layer picked (gfni, avx2 or generic) with random
// coefficients, so each term builds its tables or matrices; "cauchy"
// passes the Cauchy entries 1/(s+j), the coefficients the protocol's
// rounds pass; "generic" runs AddMulSlices over the same symbols, the
// portable layer, and every other row carries its speedup over it. The
// arms are interleaved over gfBenchReps repetitions and each row reports
// its arm's best (minimum ns/op) run: min ns/op is the noise-robust
// throughput estimator, and alternating keeps host-load drift from
// biasing one arm.

type gfBenchRow struct {
	Name             string  `json:"name"`
	N                int     `json:"n"`
	Sources          int     `json:"sources"`
	Kernel           string  `json:"kernel"`
	NsPerOp          float64 `json:"ns_per_op"`
	MBPerS           float64 `json:"mb_per_s"`
	SpeedupVsGeneric float64 `json:"speedup_vs_generic,omitempty"`
}

type gfBenchReport struct {
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	DispatchKernel string `json:"dispatch_kernel"`
	// SpeedupLong4 is the dispatch arm over the generic arm at the
	// longest rows with 4 sources.
	SpeedupLong4 float64      `json:"speedup_long_4src"`
	Benchmarks   []gfBenchRow `json:"benchmarks"`
}

var (
	// Row lengths in symbols: short (256, under the per-term table or
	// matrix build's amortization), a 4 KiB payload (2048, the stream's
	// default) and long (16384).
	gfBenchSizes   = []int{256, 2048, 16384}
	gfBenchSources = []int{1, 2, 4, 8}
	gfBenchReps    = 3
)

// benchGF runs one arm over n-symbol rows and the given source count.
func benchGF(n, sources int, arm string) testing.BenchmarkResult {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(int64(n + sources)))
	dst := make([]uint16, n)
	srcs := make([][]uint16, sources)
	wsrcs := make([][]byte, sources)
	cs := make([]uint16, sources)
	for j := range srcs {
		srcs[j] = make([]uint16, n)
		wsrcs[j] = make([]byte, 2*n)
		for i := range srcs[j] {
			srcs[j][i] = uint16(rng.Intn(65536))
			binary.BigEndian.PutUint16(wsrcs[j][2*i:], srcs[j][i])
		}
		cs[j] = uint16(2 + rng.Intn(65534))
		if arm == "cauchy" {
			cs[j] = f.Inv(uint16(sources + j))
		}
	}
	wdst := make([]byte, 2*n)
	return testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(2 * n * sources))
		for i := 0; i < b.N; i++ {
			if arm == "generic" {
				f.AddMulSlices(dst, srcs, cs)
			} else {
				f.AddMulBE16(wdst, wsrcs, cs)
			}
		}
	})
}

func mbPerS(r testing.BenchmarkResult) float64 {
	if r.T <= 0 {
		return 0
	}
	return float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
}

// gitCommit is the revision stamped into the binary at build time, or
// else `git rev-parse HEAD` of the working directory, or "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func gfBench(out string) {
	rep := gfBenchReport{
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(),
		DispatchKernel: gf.GF65536().Kernel(),
	}
	arms := []string{"dispatch", "cauchy", "generic"}
	for _, n := range gfBenchSizes {
		for _, sources := range gfBenchSources {
			best := make([]testing.BenchmarkResult, len(arms))
			for r := 0; r < gfBenchReps; r++ {
				for a, arm := range arms {
					if res := benchGF(n, sources, arm); r == 0 || res.NsPerOp() < best[a].NsPerOp() {
						best[a] = res
					}
				}
			}
			generic := float64(best[len(arms)-1].NsPerOp())
			for a, arm := range arms {
				row := gfBenchRow{
					Name:    fmt.Sprintf("AddMulBE16/n%d/s%d/r=%s", n, sources, arm),
					N:       n,
					Sources: sources,
					Kernel:  rep.DispatchKernel,
					NsPerOp: float64(best[a].NsPerOp()),
					MBPerS:  mbPerS(best[a]),
				}
				if arm == "generic" {
					row.Name = fmt.Sprintf("AddMulSlices/n%d/s%d/r=generic", n, sources)
					row.Kernel = "generic"
				} else if row.NsPerOp > 0 {
					row.SpeedupVsGeneric = generic / row.NsPerOp
				}
				if arm == "dispatch" && n == gfBenchSizes[len(gfBenchSizes)-1] && sources == 4 {
					rep.SpeedupLong4 = row.SpeedupVsGeneric
				}
				rep.Benchmarks = append(rep.Benchmarks, row)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	data = append(data, '\n')
	fatal(os.WriteFile(out, data, 0o644))
	fmt.Printf("gf kernel bench: dispatch=%s, AddMulBE16 4-source long rows %.2fx the portable layer -> %s\n",
		rep.DispatchKernel, rep.SpeedupLong4, out)
}
