package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/service"
)

// The streaming key-material benchmark: one stream-fed session served
// over real loopback HTTP, measured two ways against the same daemon.
//
// The stream arm issues 1 MiB GET /v1/sessions/{id}/stream reads at
// fresh offsets — every byte is freshly derived by the pipelined
// keystream engine, and the chunked body starts flushing as soon as the
// first block lands (TTFB tracks one block derivation, not the range).
// The per-draw arm is the pre-stream consumption model: one 32-byte
// POST /v1/sessions/{id}/draw per key, each paying a full HTTP round
// trip. It reads the same 1 MiB total, so both arms pay for deriving
// the same amount of key material and the speedup isolates the
// consumption model (bulk chunked body vs request-per-key).

type streamBenchReport struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`

	// The session shape behind both arms.
	Terminals    int     `json:"terminals"`
	Erasure      float64 `json:"erasure"`
	XPerRound    int     `json:"x_per_round"`
	PayloadBytes int     `json:"payload_bytes"`
	StreamBlock  int     `json:"stream_block"`

	// Stream arm: bulk reads at fresh (cold) offsets.
	StreamRequests   int     `json:"stream_requests"`
	StreamReadBytes  int64   `json:"stream_read_bytes"`
	StreamMBPerS     float64 `json:"stream_mb_per_s"`
	StreamTTFBP50Ms  float64 `json:"stream_ttfb_p50_ms"`
	StreamTTFBP99Ms  float64 `json:"stream_ttfb_p99_ms"`
	PerDrawRequests  int     `json:"perdraw_requests"`
	PerDrawReadBytes int64   `json:"perdraw_read_bytes"`
	PerDrawMBPerS    float64 `json:"perdraw_mb_per_s"`
	// Speedup is stream MB/s over per-draw MB/s for bulk (1 MiB) reads.
	Speedup float64 `json:"speedup"`
}

const (
	streamBenchReadLen  = 1 << 20 // one stream request
	streamBenchRequests = 8
	streamBenchDrawSize = 32
	// The per-draw arm reads one stream request's worth of material.
	streamBenchDraws = streamBenchReadLen / streamBenchDrawSize
)

func streamBenchSpec() service.SessionSpec {
	return service.SessionSpec{
		Name:         "bench-stream",
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    128,
		PayloadBytes: 4096,
		Rotate:       true,
		Seed:         4242,
		LowWater:     128 << 10,
		TargetDepth:  256 << 10,
		Timeout:      60 * time.Second,
		StreamBlock:  1 << 17,
	}
}

func streamBench(out string) {
	svc := service.New(service.Config{MaxSessions: 2})
	spec := streamBenchSpec()
	s, err := svc.Create(spec)
	fatal(err)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	fatal(err)
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Minute}

	// Wait for the pool prefill so the per-draw arm starts from a full
	// pool (its draws then never wait on derivation).
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if s.Metrics().Pool.Available >= spec.TargetDepth {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("stream bench: pool never reached target depth"))
		}
		time.Sleep(10 * time.Millisecond)
	}

	rep := streamBenchReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Terminals: spec.Terminals, Erasure: spec.Erasure,
		XPerRound: spec.XPerRound, PayloadBytes: spec.PayloadBytes,
		StreamBlock:     spec.StreamBlock,
		StreamRequests:  streamBenchRequests,
		PerDrawRequests: streamBenchDraws,
	}

	// Stream arm. Offsets start past the pool's prefetch horizon so every
	// request derives cold blocks (the honest bulk-read cost); requests
	// walk forward, so the engine's prefetch window overlaps request k+1's
	// derivation with request k's drain — exactly the pipelining a real
	// bulk consumer sees.
	ttfbs := make([]float64, 0, streamBenchRequests)
	off := int64(64 << 20)
	start := time.Now()
	buf := make([]byte, 64<<10)
	for i := 0; i < streamBenchRequests; i++ {
		url := fmt.Sprintf("%s/v1/sessions/%d/stream?offset=%d&len=%d", base, s.ID, off, streamBenchReadLen)
		reqStart := time.Now()
		resp, err := client.Get(url)
		fatal(err)
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			fatal(fmt.Errorf("stream bench: GET %s: %d %s", url, resp.StatusCode, body))
		}
		first := true
		var got int64
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if first {
					ttfbs = append(ttfbs, time.Since(reqStart).Seconds()*1e3)
					first = false
				}
				got += int64(n)
			}
			if rerr == io.EOF {
				break
			}
			fatal(rerr)
		}
		resp.Body.Close()
		if got != streamBenchReadLen {
			fatal(fmt.Errorf("stream bench: short read %d of %d", got, streamBenchReadLen))
		}
		rep.StreamReadBytes += got
		off += streamBenchReadLen
	}
	el := time.Since(start).Seconds()
	rep.StreamMBPerS = float64(rep.StreamReadBytes) / el / 1e6
	sort.Float64s(ttfbs)
	rep.StreamTTFBP50Ms = ttfbs[len(ttfbs)/2]
	rep.StreamTTFBP99Ms = ttfbs[int(float64(len(ttfbs))*0.99)]

	// Per-draw arm: the old one-key-per-request consumption model.
	start = time.Now()
	for i := 0; i < streamBenchDraws; i++ {
		url := fmt.Sprintf("%s/v1/sessions/%d/draw?bytes=%d", base, s.ID, streamBenchDrawSize)
		resp, err := client.Post(url, "", nil)
		fatal(err)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("stream bench: POST %s: %d %s", url, resp.StatusCode, body))
		}
		rep.PerDrawReadBytes += streamBenchDrawSize
	}
	el = time.Since(start).Seconds()
	rep.PerDrawMBPerS = float64(rep.PerDrawReadBytes) / el / 1e6
	if rep.PerDrawMBPerS > 0 {
		rep.Speedup = rep.StreamMBPerS / rep.PerDrawMBPerS
	}

	srv.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	svc.Shutdown(sctx)
	cancel()

	data, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	data = append(data, '\n')
	fatal(os.WriteFile(out, data, 0o644))
	fmt.Printf("stream bench: stream %.1f MB/s (ttfb p50 %.1fms p99 %.1fms), per-draw %.2f MB/s, speedup %.1fx -> %s\n",
		rep.StreamMBPerS, rep.StreamTTFBP50Ms, rep.StreamTTFBP99Ms, rep.PerDrawMBPerS, rep.Speedup, out)
}
