package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// cpuBuckets are the cpu.* shares, in report order: the repository's
// modules on the request path, then network, GC and the rest.
var cpuBuckets = append(slices.Clone(moduleBuckets), "net", "gc", "runtime_other", "other")

// moduleBuckets are the repro/internal modules with a bucket of their own.
var moduleBuckets = []string{
	"packet", "gf", "matrix", "mds", "core", "wire", "keystream", "transport",
	"service", "keypool", "cluster", "gate",
}

// cpuShares reads a CPU profile's stacks with `go tool pprof -traces`
// and returns each bucket's share of the sampled CPU time in percent,
// with the number of stacks read.
func cpuShares(profile string) (map[string]float64, int64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTraces(bytes.NewReader(out))
}

// bucketTraces parses a `pprof -traces` listing: a header, then one
// block per stack between separator lines — optional label lines, a line
// holding the sample value and the leaf frame, then the callers.
func bucketTraces(r io.Reader) (map[string]float64, int64, error) {
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total time.Duration
	var n int64
	var stack []string
	var value time.Duration
	inTraces := false
	flush := func() {
		if len(stack) > 0 {
			shares[bucketOf(stack)] += float64(value)
			total += value
			n++
		}
		stack = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if stack == nil && strings.HasSuffix(fields[0], ":") {
			continue // a profile label ("key:  value") ahead of the stack
		}
		if stack == nil {
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: unexpected line %q", line)
			}
			value, fields = v, fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	for b := range shares {
		shares[b] = 100 * shares[b] / float64(total)
	}
	return shares, n, nil
}

// bucketOf assigns one stack, leaf first, to a bucket. The rules apply
// in order: GC work anywhere on the stack; a network or syscall leaf;
// the innermost repro/internal module (so math/rand under
// packet.RandomPayload counts as packet); runtime leaves; the rest.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.gcAssistAlloc") {
			return "gc"
		}
	}
	switch pkgOf(stack[0]) {
	case "syscall", "internal/runtime/syscall", "internal/poll", "net", "net/http":
		return "net"
	}
	// Helper modules without a bucket of their own (obs, httpapi, client,
	// radio, ...) count toward the listed module that called them.
	for _, fn := range stack {
		if mod, ok := strings.CutPrefix(pkgOf(fn), "repro/internal/"); ok && slices.Contains(moduleBuckets, mod) {
			return mod
		}
	}
	if leaf := pkgOf(stack[0]); leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/") {
		return "runtime_other"
	}
	return "other"
}

// pkgOf returns the import path of a pprof function name such as
// "repro/internal/gf.(*Field[...]).AddMulSlices" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}
