package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/gf"
)

// host names the hardware and software a result was measured on, and
// the settings of the run.
type host struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GFKernels  map[string]string `json:"gf_kernels"`
	CPUFlags   map[string]bool   `json:"cpu_flags"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	WindowS    float64           `json:"window_s"`
	WarmupS    float64           `json:"warmup_s"`
	Traced     bool              `json:"traced"`
}

func hostInfo(opts options) host {
	return host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GFKernels: map[string]string{
			"GF(2^8)":  gf.GF256().Kernel(),
			"GF(2^16)": gf.GF65536().Kernel(),
		},
		CPUFlags:  cpuFlags("avx2", "avx512f", "gfni"),
		GoVersion: runtime.Version(),
		Commit:    commit(),
		Seed:      opts.seed,
		WindowS:   opts.window.Seconds(),
		WarmupS:   opts.warmup.Seconds(),
		Traced:    opts.trace,
	}
}

// cpuFlags reports which of the named flags the first CPU in
// /proc/cpuinfo lists (all false where that file does not exist).
func cpuFlags(names ...string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = false
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		for _, flag := range strings.Fields(val) {
			if _, want := out[flag]; want {
				out[flag] = true
			}
		}
		break
	}
	return out
}

// commit is `git rev-parse HEAD` of the working directory — git is kept
// from searching parent directories — or else the revision stamped into
// the binary at build time, or "unknown".
func commit() string {
	wd, err := os.Getwd()
	if err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
