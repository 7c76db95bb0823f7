package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ReadyPrefix is the line a worker process prints on stdout once its
// control RPC is listening; the rest of the line is `url=<base url>`.
// ExecSpawner blocks on it, so any worker-mode binary must print it.
const ReadyPrefix = "THINAIRD_WORKER_READY"

// WorkerSpawnOpts is what the coordinator fixes about each worker it
// spawns.
type WorkerSpawnOpts struct {
	// Slot is the coordinator's stable index for this worker (survives
	// restarts; the process behind it changes).
	Slot int
	// Capacity bounds sessions on the worker.
	Capacity int
	// DrainTimeout is the per-session graceful drain bound.
	DrainTimeout time.Duration
}

// WorkerProc is a running worker as the coordinator sees it: an RPC
// address plus a lifecycle. ExecSpawner backs it with a real OS process,
// InProcess with a goroutine-hosted worker — the supervision logic is
// identical for both.
type WorkerProc interface {
	// URL is the worker's control RPC base URL.
	URL() string
	// PID identifies the worker process (the host process for in-process
	// workers).
	PID() int
	// Done is closed when the worker has exited.
	Done() <-chan struct{}
	// Stop asks the worker to exit gracefully (it is expected to have
	// been drained already) and waits until ctx expires, then kills.
	Stop(ctx context.Context) error
	// Kill terminates the worker immediately.
	Kill() error
}

// SpawnFunc produces a live worker. The coordinator calls it at startup
// and again whenever a worker dies within its restart budget.
type SpawnFunc func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error)

// ExecSpawner spawns workers as real OS processes: `<binary> worker
// -ctl 127.0.0.1:0 -capacity N ...`, waiting for the ReadyPrefix line on
// the child's stdout to learn its RPC address.
type ExecSpawner struct {
	// Binary is the worker executable. Empty means the current executable
	// (the coordinator re-execs itself in worker mode).
	Binary string
	// Args are extra arguments appended after the built-in worker flags.
	Args []string
	// Output receives the children's stderr and post-ready stdout.
	// Nil means os.Stderr.
	Output io.Writer
	// ReadyTimeout bounds the wait for the ready line. 0 means 10s.
	ReadyTimeout time.Duration
}

// Spawn implements SpawnFunc. Its errors do not name the slot: the
// coordinator wraps them in one "cluster: spawning worker N:" (or logs
// them under "cluster: respawning worker N:").
func (es *ExecSpawner) Spawn(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
	bin := es.Binary
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("resolving own executable: %w", err)
		}
		bin = exe
	}
	out := es.Output
	if out == nil {
		out = os.Stderr
	}
	readyTimeout := es.ReadyTimeout
	if readyTimeout == 0 {
		readyTimeout = 10 * time.Second
	}
	args := []string{
		"worker",
		"-ctl", "127.0.0.1:0",
		"-capacity", strconv.Itoa(opts.Capacity),
		"-drain", opts.DrainTimeout.String(),
		"-slot", strconv.Itoa(opts.Slot),
		"-supervised",
	}
	args = append(args, es.Args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = out
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(done)
	}()

	url, err := awaitReadyLine(ctx, stdout, out, done, readyTimeout)
	if err != nil {
		_ = cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("awaiting the ready line: %w", err)
	}
	return &execProc{cmd: cmd, url: url, done: done}, nil
}

// awaitReadyLine scans the child's stdout for the ready line, then keeps
// forwarding the remaining output to out in the background.
func awaitReadyLine(ctx context.Context, stdout io.ReadCloser, out io.Writer, done <-chan struct{}, timeout time.Duration) (string, error) {
	type ready struct {
		url string
		err error
	}
	ch := make(chan ready, 1)
	sc := bufio.NewScanner(stdout)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, ReadyPrefix); ok {
				url := strings.TrimPrefix(strings.TrimSpace(rest), "url=")
				ch <- ready{url: url}
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
					fmt.Fprintln(out, sc.Text())
				}
				return
			}
			fmt.Fprintln(out, line)
		}
		ch <- ready{err: fmt.Errorf("worker exited before ready line")}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return "", r.err
		}
		if r.url == "" {
			return "", fmt.Errorf("malformed ready line")
		}
		return r.url, nil
	case <-done:
		return "", fmt.Errorf("worker exited before ready line")
	case <-ctx.Done():
		return "", ctx.Err()
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out waiting for ready line")
	}
}

type execProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

func (p *execProc) URL() string           { return p.url }
func (p *execProc) PID() int              { return p.cmd.Process.Pid }
func (p *execProc) Done() <-chan struct{} { return p.done }

func (p *execProc) Stop(ctx context.Context) error {
	select {
	case <-p.done:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		_ = p.cmd.Process.Kill()
		<-p.done
		return ctx.Err()
	}
}

func (p *execProc) Kill() error {
	select {
	case <-p.done:
		return nil
	default:
	}
	err := p.cmd.Process.Kill()
	<-p.done
	return err
}

// InProcess returns a SpawnFunc hosting each worker inside the calling
// process: a Worker served over a real loopback HTTP listener, so the
// coordinator talks to it through the same RPC path as a separate
// process. This is the spawner for tests, examples and single-binary
// demos; production tiers use ExecSpawner.
func InProcess(cfgTweak func(*WorkerConfig)) SpawnFunc {
	return func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
		cfg := WorkerConfig{Capacity: opts.Capacity, DrainTimeout: opts.DrainTimeout}
		if cfgTweak != nil {
			cfgTweak(&cfg)
		}
		w := NewWorker(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Service().Shutdown(context.Background())
			return nil, err
		}
		srv := &http.Server{Handler: w.Handler()}
		p := &inprocProc{
			worker: w,
			srv:    srv,
			url:    "http://" + ln.Addr().String(),
			done:   make(chan struct{}),
		}
		go func() {
			_ = srv.Serve(ln)
		}()
		go func() {
			// A drained worker "exits", mirroring the supervised process.
			<-w.Drained()
			p.shutdown(false)
		}()
		return p, nil
	}
}

type inprocProc struct {
	worker *Worker
	srv    *http.Server
	url    string

	once sync.Once
	done chan struct{}
}

func (p *inprocProc) URL() string           { return p.url }
func (p *inprocProc) PID() int              { return os.Getpid() }
func (p *inprocProc) Done() <-chan struct{} { return p.done }

// shutdown tears the in-process worker down. hard mimics SIGKILL: the
// listener closes first (RPCs start failing like a dead process), then
// every session is cancelled without a drain window. The soft path lets
// in-flight RPC responses (typically the drain call itself) complete.
func (p *inprocProc) shutdown(hard bool) {
	p.once.Do(func() {
		if hard {
			_ = p.srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already expired: sessions are cut down, not drained
			_ = p.worker.Drain(ctx)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = p.srv.Shutdown(ctx)
			_ = p.worker.Drain(ctx) // no-op when the drain RPC got here first
			cancel()
		}
		close(p.done)
	})
}

func (p *inprocProc) Stop(ctx context.Context) error {
	go p.shutdown(false)
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		p.shutdown(true)
		return ctx.Err()
	}
}

func (p *inprocProc) Kill() error {
	p.shutdown(true)
	return nil
}
