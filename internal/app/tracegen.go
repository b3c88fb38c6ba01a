package app

import (
	"fmt"
	"io"
	"os"

	"reqsched"
	"reqsched/internal/registry"
)

// TracegenMain is the main program of cmd/tracegen: it generates, inspects
// and replays serialized traces.
//
//	tracegen gen  -workload zipf -n 8 -d 4 -rounds 100 -out trace.json
//	tracegen gen  -adversary fix -d 4 -phases 40 -out fix.json
//	tracegen gen  -adversary balance -params x=2,k=16 -out balance.json
//	tracegen gen  -workload bursty -rounds 100000 -stream -out trace.jsonl
//	tracegen info -in trace.json
//	tracegen info -in trace.jsonl -stream
//	tracegen run  -in trace.json -strategy A_balance
//
// Workloads and adversaries resolve by registry name (-list shows the
// catalog; -describe a component's parameters). -params overrides schema
// parameters the convenience flags do not cover, e.g. the Theorem 2.5
// construction's x and k. With -stream, gen emits the JSONL stream format
// and info evaluates the offline optimum segment by segment without
// materializing the trace.
func TracegenMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return tracegenUsage(stderr)
	}
	switch args[0] {
	case "gen":
		return tracegenGen(args[1:], stdout, stderr)
	case "info":
		return tracegenInfo(args[1:], stdout, stderr)
	case "run":
		return tracegenRun(args[1:], stdout, stderr)
	case "show":
		return tracegenShow(args[1:], stdout, stderr)
	}
	// Top-level -list/-describe (and -h) without a subcommand.
	fs := newFlagSet("tracegen", stderr)
	workers := workersFlag(fs)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}
	return tracegenUsage(stderr)
}

func tracegenUsage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: tracegen gen|info|run|show [flags]  (or tracegen -list)")
	return 2
}

// tracegenShow renders a strategy's schedule on a trace as an ASCII grid.
func tracegenShow(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracegen show", stderr)
	in := fs.String("in", "", "trace file")
	name := fs.String("strategy", "A_balance", "strategy name")
	from := fs.Int("from", 0, "first round to draw")
	to := fs.Int("to", -1, "one past the last round to draw (-1: all)")
	losses := fs.Bool("losses", false, "also list unserved requests")
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if *in == "" {
		return tracegenUsage(stderr)
	}
	tr, code := tracegenLoad(*in, stderr)
	if tr == nil {
		return code
	}
	s := runnable(stderr, *name, tr.Model)
	if s == nil {
		return 2
	}
	res, err := reqsched.RunChecked(s, tr)
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: invalid trace %s: %v\n", *in, err)
		return 1
	}
	fmt.Fprint(stdout, reqsched.RenderGrid(tr, res.Log, *from, *to))
	if *losses {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, reqsched.RenderLosses(tr, res.Log))
	}
	return 0
}

func tracegenGen(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracegen gen", stderr)
	wf := addWorkloadFlags(fs, "workload generator by registry name (see tracegen -list)", 100)
	var (
		adv    = fs.String("adversary", "", "adversary construction by registry name (overrides -workload)")
		phases = fs.Int("phases", 40, phasesUsage)
		extra  = fs.String("params", "", "extra component parameters as name=value,... (see -describe)")
		out    = fs.String("out", "", "output file (default stdout)")
		stream = fs.Bool("stream", false, "emit the streaming JSONL format instead of one JSON document")
	)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	var tr *reqsched.Trace
	if *adv != "" {
		comp, ok := registry.Get(registry.KindAdversary, *adv)
		if !ok {
			fmt.Fprintf(stderr, "unknown adversary %q\n", *adv)
			return 2
		}
		p := registry.Params{}
		for _, sp := range comp.Params {
			switch sp.Name {
			case "d":
				p["d"] = iv(*wf.d)
			case "phases":
				p["phases"] = iv(*phases)
			}
		}
		over, err := comp.ParseParams(*extra)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		for k, v := range over {
			p[k] = v
		}
		c, err := registry.BuildAdversary(*adv, p)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		if c.Trace == nil {
			fmt.Fprintf(stderr, "tracegen: adversary %q is adaptive; it has no fixed trace to serialize\n", *adv)
			return 2
		}
		tr = c.Trace
	} else {
		comp, p, err := workloadParams(wf.spec())
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		over, err := comp.ParseParams(*extra)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
		for k, v := range over {
			p[k] = v
		}
		tr, err = registry.GenerateWorkload(comp.Name, p)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 2
		}
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	write := reqsched.WriteTrace
	if *stream {
		write = reqsched.WriteTraceStream
	}
	if err := write(w, tr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func tracegenLoad(path string, stderr io.Writer) (*reqsched.Trace, int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	defer f.Close()
	tr, err := reqsched.ReadTrace(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	return tr, 0
}

func tracegenInfo(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracegen info", stderr)
	in := fs.String("in", "", "trace file")
	stream := fs.Bool("stream", false, "treat the input as a JSONL stream; evaluate segment by segment")
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if *in == "" {
		return tracegenUsage(stderr)
	}
	if *stream {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		opt, nsegs, err := reqsched.OptimumStream(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "offline optimum: %d over %d independent segments\n", opt, nsegs)
		return 0
	}
	tr, code := tracegenLoad(*in, stderr)
	if tr == nil {
		return code
	}
	fmt.Fprintln(stdout, reqsched.SummarizeTrace(tr))
	fmt.Fprintf(stdout, "offline optimum: %d of %d\n", reqsched.Optimum(tr), tr.NumRequests())
	return 0
}

func tracegenRun(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracegen run", stderr)
	in := fs.String("in", "", "trace file")
	name := fs.String("strategy", "A_balance", "strategy name")
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if *in == "" {
		return tracegenUsage(stderr)
	}
	tr, code := tracegenLoad(*in, stderr)
	if tr == nil {
		return code
	}
	s := runnable(stderr, *name, tr.Model)
	if s == nil {
		return 2
	}
	res, err := reqsched.RunChecked(s, tr)
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: invalid trace %s: %v\n", *in, err)
		return 1
	}
	opt := reqsched.Optimum(tr)
	fmt.Fprintf(stdout, "%s: served %d / %d, expired %d, OPT %d, ratio %.4f, mean latency %.2f\n",
		res.Strategy, res.Fulfilled, tr.NumRequests(), res.Expired, opt,
		float64(opt)/float64(res.Fulfilled), res.MeanLatency())
	return 0
}
