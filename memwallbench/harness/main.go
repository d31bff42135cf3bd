// Command harness is the memwall benchmark's end-to-end harness. It times
// memwall from outside the process, at its stable surfaces: the CLI and
// serve's HTTP API. It imports no memwall package.
//
//	harness -memwall BIN -layers BIN -root DIR --workload W --seed N --seconds S --trace 0|1
//	harness compare DIR_A DIR_B
//
// With --trace 0 it runs workload W for S seconds and prints the
// end-to-end metrics; with --trace 1 it runs the per-layer tracer
// (memwallbench/layers) instead. Either way the last line of standard
// output is the result JSON, and the result, stamped with host
// provenance, is also written under <root>/.bench_build/results.
// `compare` prints per-metric medians and quartiles of two result
// directories, refusing results measured on different hosts or builds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"memwall/memwallbench/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memwallbench:", err)
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	memwall, layers, root, buildFlags string
	workload                          string
	seed                              uint64
	seconds                           int
	trace                             bool
}

// record is what a run writes under .bench_build/results.
type record struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Trace      bool             `json:"trace"`
	Provenance bench.Provenance `json:"provenance"`
	Result     bench.Result     `json:"result"`
}

func run() error {
	var c config
	var trace int
	flag.StringVar(&c.memwall, "memwall", "", "memwall binary under test")
	flag.StringVar(&c.layers, "layers", "", "per-layer tracer binary")
	flag.StringVar(&c.root, "root", ".", "root of the memwall checkout")
	flag.StringVar(&c.buildFlags, "build-flags", "", "flags memwall was built with (provenance)")
	flag.StringVar(&c.workload, "workload", "", "fig3-grid, traffic-sweep or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.IntVar(&c.seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer tracer")
	flag.Parse()
	c.trace = trace == 1
	c.seed = uint64(*seed)
	if c.memwall == "" || c.seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("usage: harness -memwall BIN -layers BIN --workload W --seed N --seconds S --trace 0|1")
	}
	prov, err := bench.HostProvenance(c.root, c.buildFlags)
	if err != nil {
		return err
	}
	// Every run ends well inside the 180-second limit or fails.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(c.seconds)*time.Second+120*time.Second)
	defer cancel()

	var res bench.Result
	switch {
	case c.trace:
		res, err = traced(ctx, c)
	case c.workload == "fig3-grid":
		res, err = cliWorkload(ctx, c, fig3Grid)
	case c.workload == "traffic-sweep":
		res, err = cliWorkload(ctx, c, trafficSweep)
	case c.workload == "serve-mix":
		res, err = serveMix(ctx, c)
	default:
		return fmt.Errorf("unknown workload %q (want fig3-grid, traffic-sweep or serve-mix)", c.workload)
	}
	if err != nil {
		return err
	}
	line, err := res.Line()
	if err != nil {
		return err
	}
	if err := save(c, record{c.workload, c.seed, c.trace, prov, res}); err != nil {
		return err
	}
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pb)
	fmt.Println(line)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

func save(c config, r record) error {
	dir := filepath.Join(c.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Trace {
		kind = "trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", r.Workload, kind, r.Seed)), b, 0o644)
}

// invocation is one memwall command and the reference file its standard
// output must equal.
type invocation struct {
	args []string
	ref  string
}

func jobs() string { return strconv.Itoa(runtime.NumCPU()) }

// fig3Grid is one operation of fig3-grid: the paper's Figure 3 grid,
// both suites, as a fresh process.
func fig3Grid(uint64, int) []invocation {
	return []invocation{{[]string{"fig3", "-suite", "both", "-j", jobs()}, "fig3-grid.txt"}}
}

// trafficSweep is one sweep of traffic-sweep: the trace-driven tables
// and figure, in an order the seed permutes per sweep.
func trafficSweep(seed uint64, op int) []invocation {
	all := []invocation{
		{[]string{"table7", "-j", jobs()}, "table7.txt"},
		{[]string{"table8"}, "table8.txt"},
		{[]string{"table9"}, "table9.txt"},
		{[]string{"fig4"}, "fig4.txt"},
	}
	rng := rand.New(rand.NewPCG(seed, uint64(op)))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// exec runs memwall with args and returns its standard output and
// resource usage; a non-zero exit is an error.
func execMemwall(ctx context.Context, bin string, args []string) ([]byte, *syscall.Rusage, error) {
	if err := bench.GuardArgs(args); err != nil {
		return nil, nil, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ru *syscall.Rusage
	if cmd.ProcessState != nil {
		ru, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	}
	if err != nil {
		return nil, ru, fmt.Errorf("memwall %v: %w: %.300s", args, err, stderr.String())
	}
	return stdout.Bytes(), ru, nil
}

// startupProbe is one CLI set-up sample: reading the reference outputs
// and running memwall's cheapest command (table2, analytic) to prove the
// binary starts; it times what every invocation pays before simulating.
func startupProbe(ctx context.Context, c config, refs []string) (time.Duration, map[string][]byte, error) {
	start := time.Now()
	want := map[string][]byte{}
	for _, r := range refs {
		b, err := os.ReadFile(filepath.Join(c.root, "memwallbench", "ref", r))
		if err != nil {
			return 0, nil, fmt.Errorf("reading reference output: %w", err)
		}
		want[r] = b
	}
	out, _, err := execMemwall(ctx, c.memwall, []string{"table2"})
	if err != nil {
		return 0, nil, err
	}
	if len(out) == 0 {
		return 0, nil, errors.New("memwall table2 printed nothing")
	}
	return time.Since(start), want, nil
}

// setupSamples is how many times a serve-mix run sets up; setup_s is the
// median.
const setupSamples = 31

// cliLimit is the latency limit within_limit_ratio counts one memwall
// invocation against.
const cliLimit = 10 * time.Second

// cliWorkload runs ops back to back, each a fresh set of memwall
// processes, until the measurement time is used, and checks every
// output against its reference. Every invocation is an operation. The
// latency and CPU of one op are read per command and summed over the
// op's commands: a sweep's p50 is the sum of its commands' medians, so
// each command's time comes from every sweep of the run.
func cliWorkload(ctx context.Context, c config, op func(seed uint64, op int) []invocation) (bench.Result, error) {
	var refs []string
	for _, inv := range op(c.seed, 0) {
		refs = append(refs, inv.ref)
	}
	// sample is one invocation's times as measured, and the index of the
	// host reference sample taken just before it. The set-up is sampled
	// before every invocation, so that its median spans the whole run.
	type sample struct {
		ref            string
		ok             bool
		setup, ms, cpu float64
		at             int
	}
	var samples []sample
	var want map[string][]byte

	var t bench.Tally
	rss := map[string][]float64{}
	within := 0
	speed := bench.NewHostSpeed(runtime.NumCPU())
	// The first op runs whole, so every command is measured; after it,
	// the run ends at the first invocation due past the deadline.
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
run:
	for n := 0; ; n++ {
		for _, inv := range op(c.seed, n) {
			if n > 0 && !time.Now().Before(deadline) {
				break run
			}
			speed.Sample()
			setup, w, err := startupProbe(ctx, c, refs)
			if err != nil {
				return bench.Result{}, err
			}
			want = w
			start := time.Now()
			out, ru, err := execMemwall(ctx, c.memwall, inv.args)
			d := time.Since(start)
			if err == nil {
				err = bench.CheckOutput(inv.ref, out, want[inv.ref])
			}
			sm := sample{ref: inv.ref, ok: t.Check(err), setup: setup.Seconds(), ms: ms(d), at: speed.Samples() - 1}
			if sm.ok {
				sm.cpu = bench.CPUSeconds(ru)
				rss[inv.ref] = append(rss[inv.ref], bench.PeakRSSMB(ru))
				if d <= cliLimit {
					within++
				}
			}
			samples = append(samples, sm)
		}
		if ctx.Err() != nil {
			break
		}
	}
	speed.Sample()
	if t.First != nil {
		fmt.Fprintln(os.Stderr, "memwallbench: first failure:", t.First)
	}

	// Each invocation's times are scaled by the reference samples just
	// before and after it, which follows the host's drift within the run.
	var setups []float64
	lat, cpu, measured := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, sm := range samples {
		k := speed.Around(sm.at)
		setups = append(setups, sm.setup*k)
		if sm.ok {
			lat[sm.ref] = append(lat[sm.ref], sm.ms*k)
			cpu[sm.ref] = append(cpu[sm.ref], sm.cpu*k)
			measured[sm.ref] = append(measured[sm.ref], sm.ms)
		}
	}
	var p50, opCPU, peak float64
	for _, r := range refs {
		p50 += bench.Median(lat[r])
		opCPU += bench.Median(cpu[r])
		peak = max(peak, bench.Median(rss[r]))
		fmt.Fprintf(os.Stderr, "memwallbench: %s: %d runs, median %.1f ms measured, %.1f ms scaled\n", r, len(lat[r]), bench.Median(measured[r]), bench.Median(lat[r]))
	}
	fmt.Fprintf(os.Stderr, "memwallbench: %s: %d invocations, %d failed; host reference median %.1f ms over %d samples (nominal %v)\n",
		c.workload, t.Attempted, t.Failed, 1000*speed.Median(), speed.Samples(), bench.RefNominal)
	return bench.NewResult(bench.EndToEnd, map[string]float64{
		"setup_s":            bench.Median(setups),
		"latency_p50_ms":     p50,
		"cpu_s":              opCPU,
		"peak_rss_mb":        peak,
		"within_limit_ratio": float64(within) / float64(t.Attempted),
	}, t)
}

// traced runs the per-layer tracer and passes its result through after
// checking it reports exactly the per-layer metrics.
func traced(ctx context.Context, c config) (bench.Result, error) {
	if c.layers == "" {
		return bench.Result{}, errors.New("the traced run needs the per-layer tracer (-layers), which failed to build")
	}
	traceDir := filepath.Join(c.root, ".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return bench.Result{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, c.layers, "trace",
		"-workload", c.workload, "-seed", strconv.FormatUint(c.seed, 10), "-seconds", strconv.Itoa(c.seconds),
		"-memwall", c.memwall, "-tmp", filepath.Join(c.root, ".bench_build", "tmp"),
		"-ref", filepath.Join(c.root, "memwallbench", "ref", bench.ServeRefFile),
		"-out", filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed)))
	// The `memwall serve` the tracer starts dies with it (bench.StartServer
	// sets a parent-death signal), so a timeout kill leaves no server behind.
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var got bench.Result
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		return got, fmt.Errorf("per-layer tracer: %v; no result line: %w", runErr, err)
	}
	values := map[string]float64{}
	for name, v := range got.Metrics {
		values[name] = v.Value
	}
	res, err := bench.NewResult(bench.PerLayer, values, bench.Tally{Attempted: got.Attempted, Failed: got.Failed})
	if err != nil {
		return res, fmt.Errorf("per-layer tracer: %w", err)
	}
	if runErr != nil && res.Correct {
		return res, fmt.Errorf("per-layer tracer: %w", runErr)
	}
	return res, nil
}
