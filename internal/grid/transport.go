package grid

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// procLine is one parsed worker protocol line, or the error that ended the
// stream. A closed Lines channel means the worker (or its connection) is
// gone.
type procLine struct {
	out workerOut
	err error
}

// WorkerConn is one live connection to a gridworker: job lines go down,
// parsed heartbeat/result/error lines come back. A connection serves at most
// one job at a time and is discarded after any failure — the supervisor never
// trusts a connection that misbehaved with another job.
type WorkerConn interface {
	// Send writes one job line to the worker.
	Send(job Job) error
	// Lines is the worker's response stream; it is closed when the
	// connection ends.
	Lines() <-chan procLine
	// Close tears the connection down (and, for pipe transports, reaps the
	// subprocess). It must unblock a pending read and may be called from a
	// goroutine other than the reader's.
	Close()
	// Addr names the worker endpoint for logs and failure reports.
	Addr() string
}

// Transport hands the supervisor worker connections. Implementations own the
// reconnect policy: Dial blocks through redial backoff and returns *HostLost
// only once the endpoint is deemed gone for good, at which point the
// supervisor requeues the slot's in-flight job and retires the slot.
type Transport interface {
	// Dial obtains a fresh worker connection for the given supervisor slot.
	Dial(ctx context.Context, slot int) (WorkerConn, error)
	// Slots is the transport's natural concurrency (0: the caller's
	// Options.Workers decides). The TCP transport pins one slot per worker
	// address.
	Slots() int
}

// HostLost is the error a Transport returns when a worker endpoint is gone
// for good — unreachable past the redial budget, partitioned, or speaking an
// incompatible protocol. The supervisor reacts by returning the slot's
// in-flight job to the queue and completing the sweep on surviving workers;
// the failure report names the lost host.
type HostLost struct {
	Host string
	Err  error
}

func (e *HostLost) Error() string {
	return fmt.Sprintf("grid: worker host %s lost: %v", e.Host, e.Err)
}

func (e *HostLost) Unwrap() error { return e.Err }

// PipeTransport spawns gridworker subprocesses speaking the JSONL protocol
// over stdin/stdout — the single-machine transport. Every Dial is a fresh
// process; there is no redial policy, so a spawn failure is an ordinary
// (retry-budgeted) error, never a HostLost.
type PipeTransport struct {
	// Cmd is the argv spawning one worker (required).
	Cmd []string
	// Env is appended to the inherited environment of each worker.
	Env []string
	// Log receives worker stderr (nil: discard). Every worker's stderr
	// copier writes it, so Dial serializes the writes (see LockedLog).
	Log io.Writer

	logOnce sync.Once
	log     io.Writer
}

func (t *PipeTransport) Slots() int { return 0 }

func (t *PipeTransport) Dial(ctx context.Context, slot int) (WorkerConn, error) {
	if len(t.Cmd) == 0 {
		return nil, errors.New("grid: no worker command configured")
	}
	t.logOnce.Do(func() { t.log = LockedLog(t.Log) })
	cmd := exec.Command(t.Cmd[0], t.Cmd[1:]...)
	cmd.Env = append(os.Environ(), t.Env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = t.log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("grid: spawn worker: %w", err)
	}
	p := &proc{cmd: cmd, stdin: stdin, lines: make(chan procLine, 4)}
	go func() {
		defer close(p.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var out workerOut
			if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
				// A worker emitting unparseable lines is sick: report and
				// stop reading; the supervisor reaps and respawns.
				p.lines <- procLine{err: fmt.Errorf("unparseable worker line: %w", err)}
				return
			}
			p.lines <- procLine{out: out}
		}
		if err := sc.Err(); err != nil {
			p.lines <- procLine{err: err}
		}
	}()
	return p, nil
}

// syncWriter serializes writes to a writer several goroutines share.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// LockedLog returns w made safe for concurrent writers. exec copies a
// non-file Stderr on a goroutine of its own per process, and every slot's
// TCP Dial logs its redials, so one log handed to several workers — and to
// the supervisor's own diagnostics — is written concurrently. nil becomes
// io.Discard; a writer LockedLog already wrapped is returned as it is, so the
// supervisor and its transport share one lock when both get the same wrapped
// writer.
func LockedLog(w io.Writer) io.Writer {
	switch w.(type) {
	case nil:
		return io.Discard
	case *syncWriter:
		return w
	}
	return &syncWriter{w: w}
}

// proc is one live worker subprocess.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan procLine
}

func (p *proc) Send(job Job) error {
	line, err := json.Marshal(workerIn{Job: &job})
	if err != nil {
		return err
	}
	_, err = p.stdin.Write(append(line, '\n'))
	return err
}

func (p *proc) Lines() <-chan procLine { return p.lines }

func (p *proc) Addr() string {
	if p.cmd.Process != nil {
		return fmt.Sprintf("pipe:%d", p.cmd.Process.Pid)
	}
	return "pipe"
}

// Close tears the worker down and reaps it.
func (p *proc) Close() {
	p.stdin.Close()
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.cmd.Wait()
	// Drain the reader goroutine so it can exit.
	for range p.lines {
	}
}
