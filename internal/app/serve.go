package app

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/registry"
	"reqsched/internal/serve"
)

// ServeMain is the main program of cmd/serve: it boots the live scheduler
// daemon — an HTTP server ingesting JSONL request records into the round
// engine under any registry strategy — and runs until SIGINT/SIGTERM, when
// it drains gracefully (stops admitting, runs out the deadline window,
// flushes the rolling competitive ratio) and reports the final totals.
//
// Usage examples:
//
//	serve -addr :8080 -strategy A_balance -n 8 -d 4 -round-ms 100
//	serve -addr :0 -strategy A_current,l=2 -virtual-clock
//	tracegen -workload bursty -stream | curl --data-binary @- localhost:8080/v1/requests
func ServeMain(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveMain(ctx, args, stdout, stderr)
}

// serveMain is ServeMain with the lifetime under caller control, so tests
// can terminate the daemon without delivering signals to the process.
func serveMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("serve", stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address (\":0\" picks a free port)")
		strategy = fs.String("strategy", "A_balance", "strategy by registry name, with optional parameters: name[,key=value...]")
		n        = nFlag(fs)
		d        = dFlag(fs)
		maxD     = fs.Int("max-d", 0, "largest per-record deadline window admitted (0: -d)")
		hold     = fs.Int("hold", 0, "service model: rounds a served request occupies its resource (0 = 1, unit)")
		capc     = fs.Int("cap", 0, "service model: concurrent services per resource (0 = 1, unit)")
		roundMS  = fs.Int("round-ms", 100, "wall-clock round length in milliseconds")
		virtual  = fs.Bool("virtual-clock", false, "deterministic clock: record arrival rounds drive the engine instead of a ticker")
		queue    = fs.Int("queue", 4096, "arrival queue capacity (full queue answers 429)")
		pprofSrv = fs.String("pprof", "", "also serve net/http/pprof on this address (e.g. localhost:6060; empty: off)")
	)
	workers := workersFlag(fs)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}

	strat, name, err := buildStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	s, err := serve.New(serve.Config{
		N:            *n,
		D:            *d,
		MaxD:         *maxD,
		Strategy:     strat,
		StrategyName: name,
		Model:        core.ServiceModel{Hold: *hold, Cap: *capc},
		Virtual:      *virtual,
		RoundDur:     time.Duration(*roundMS) * time.Millisecond,
		QueueCap:     *queue,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var pprofSrvr *http.Server
	if *pprofSrv != "" {
		// The profiler gets its own mux and listener: the daemon's handler
		// never exposes /debug/pprof, and the default is fully off. The
		// server is closed with the daemon on SIGTERM/drain — it must not
		// outlive the main listener.
		pln, err := net.Listen("tcp", *pprofSrv)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrvr = newHTTPServer(pmux)
		defer pprofSrvr.Close()
		go func() { _ = pprofSrvr.Serve(pln) }()
		fmt.Fprintf(stdout, "serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	clock := fmt.Sprintf("round-ms=%d", *roundMS)
	if *virtual {
		clock = "virtual-clock"
	}
	model := ""
	if m := (core.ServiceModel{Hold: *hold, Cap: *capc}).Norm(); !m.IsUnit() {
		model = " " + m.String()
	}
	fmt.Fprintf(stdout, "serve: listening on %s strategy=%s n=%d d=%d%s %s queue=%d\n",
		ln.Addr(), name, *n, *d, model, clock, *queue)

	httpSrv := newHTTPServer(s)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		m := s.Drain()
		fmt.Fprintf(stdout, "serve: drained: requests=%d fulfilled=%d expired=%d rolling ratio %s over %d segments\n",
			m.Requests, m.Fulfilled, m.Expired, m.Rolling.Ratio, m.Rolling.Solved)
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
		if pprofSrvr != nil {
			_ = pprofSrvr.Close()
		}
	}()
	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(stderr, err)
		return 1
	}
	<-done
	return 0
}

// serveChecks verifies the tentpole serve-mode equivalence for cmd/verify: a
// gapped workload streamed through the daemon's HTTP ingest under the
// virtual clock must reproduce the batch engine's totals and the offline
// ratio pipeline's OPT on the very same stream.
func serveChecks(add func(name string, ok bool, format string, args ...interface{}), workers int) {
	const name = "serve: virtual clock vs engine"
	tr := reqsched.Bursty(reqsched.WorkloadConfig{N: 6, D: 4, Rounds: 90, Rate: 0, Seed: 5}, 3, 10, 8)
	var buf bytes.Buffer
	if err := reqsched.WriteTraceStream(&buf, tr); err != nil {
		add(name, false, "%v", err)
		return
	}
	s, err := serve.New(serve.Config{N: tr.N, D: tr.D, Strategy: reqsched.NewABalance(), Virtual: true})
	if err != nil {
		add(name, false, "%v", err)
		return
	}
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(buf.Bytes())))
	m := s.Drain()
	want := reqsched.Run(reqsched.NewABalance(), tr)
	opt, _ := reqsched.Solve(tr, reqsched.Cardinality, workers)
	ok := rw.Code == http.StatusOK &&
		m.Requests == want.Requests && m.Fulfilled == want.Fulfilled && m.Expired == want.Expired &&
		m.Rolling.Alg == want.Fulfilled && m.Rolling.Opt == opt &&
		m.Rolling.Solved == reqsched.TraceSegmentCount(tr)
	add(name, ok,
		"daemon %d/%d OPT %d vs engine %d/%d OPT %d (%d segments, ingest %d)",
		m.Fulfilled, m.Expired, m.Rolling.Opt, want.Fulfilled, want.Expired, opt,
		m.Rolling.Solved, rw.Code)
}

// Connection timeouts of the daemon's listeners. A client that opens a
// connection and never finishes its request header, or parks an idle
// keep-alive connection, is dropped instead of holding a goroutine forever.
// There is deliberately no read timeout: a long trace-file POST is legitimate.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds every listener the daemon runs, so they share the
// connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// buildStrategy resolves a "name[,key=value...]" spec against the registry.
func buildStrategy(spec string) (core.Strategy, string, error) {
	name, _, _ := strings.Cut(spec, ",")
	if _, ok := registry.Get(registry.KindStrategy, name); !ok {
		return nil, "", fmt.Errorf("unknown strategy %q (try -list)", name)
	}
	s, err := registry.NewStrategySpec(spec)
	if err != nil {
		return nil, "", err
	}
	return s, name, nil
}
