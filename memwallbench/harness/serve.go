package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"memwall/memwallbench/bench"
)

// serveLimit is the latency limit within_limit_ratio counts against.
const serveLimit = 2 * time.Second

// serveMix runs the seeded open-loop schedule against `memwall serve`
// with its default jobs, queue and admission settings, one fresh server
// and checkpoint directory per round, and checks every response's cells
// against the committed reference payloads.
func serveMix(ctx context.Context, c config) (bench.Result, error) {
	conns := runtime.NumCPU()
	if conns < bench.MinConns {
		return bench.Result{}, fmt.Errorf("serve-mix needs %d connections for a coalesced pair; this host has %d CPU", bench.MinConns, conns)
	}
	rounds := bench.Rounds(c.seconds)
	entries, err := bench.Schedule(c.seed, rounds)
	if err != nil {
		return bench.Result{}, err
	}
	want, err := bench.LoadServeRef(filepath.Join(c.root, "memwallbench", "ref", bench.ServeRefFile))
	if err != nil {
		return bench.Result{}, err
	}
	tmp := filepath.Join(c.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return bench.Result{}, err
	}
	// spawn starts a server on a fresh checkpoint directory and returns a
	// function that stops it and removes the directory.
	spawn := func() (*bench.Server, time.Duration, func(idle bool) (*syscall.Rusage, error), error) {
		dir, err := os.MkdirTemp(tmp, "serve-checkpoint-")
		if err != nil {
			return nil, 0, nil, err
		}
		s, d, err := bench.StartServer(ctx, c.memwall, "-checkpoint-dir", dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, nil, err
		}
		stop := func(idle bool) (*syscall.Rusage, error) {
			defer os.RemoveAll(dir)
			if idle {
				return nil, s.Discard()
			}
			return s.Stop()
		}
		return s, d, stop, nil
	}
	// Idle set-up samples come in batches before, between and after the
	// rounds, each after a host reference sample, so that both span the
	// run; each round's own spawn is a set-up sample too. The reference is
	// sampled only while no server runs.
	speed := bench.NewHostSpeed(conns)
	var setups []float64
	idle := func(n int) error {
		for range n {
			speed.Sample()
			_, d, stop, err := spawn()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			if _, err := stop(true); err != nil {
				return err
			}
		}
		return nil
	}
	perBatch := (setupSamples - rounds) / (rounds + 1)

	var outcomes []bench.Outcome
	var cpuSeconds float64
	var rss []float64
	counters := map[string]float64{}
	for r := 0; r < rounds; r++ {
		if err := idle(perBatch); err != nil {
			return bench.Result{}, err
		}
		var round []bench.Entry
		for _, e := range entries {
			if e.Round == r {
				round = append(round, e)
			}
		}
		speed.Sample()
		srv, d, stop, err := spawn()
		if err != nil {
			return bench.Result{}, err
		}
		setups = append(setups, d.Seconds())
		out, genErr := bench.Generate(ctx, bench.Client(conns), srv.Base, round, conns)
		ctr, ctrErr := srv.Counters(ctx)
		ru, err := stop(false)
		if err = errors.Join(genErr, ctrErr, err); err != nil {
			return bench.Result{}, err
		}
		outcomes = append(outcomes, out...)
		cpuSeconds += bench.CPUSeconds(ru)
		rss = append(rss, bench.PeakRSSMB(ru))
		for k, v := range ctr {
			counters[k] += v
		}
	}
	if err := idle(setupSamples - len(setups)); err != nil {
		return bench.Result{}, err
	}

	var t bench.Tally
	var lat, late []float64
	byClass := map[bench.Class][]float64{}
	within := 0
	for _, o := range outcomes {
		late = append(late, ms(o.Late()))
		if _, err := bench.CheckResponse(o, want); !t.Check(err) {
			continue
		}
		lat = append(lat, ms(o.Latency()))
		byClass[o.Entry.Class] = append(byClass[o.Entry.Class], ms(o.Latency()))
		if o.Latency() <= serveLimit {
			within++
		}
	}
	if t.First != nil {
		fmt.Fprintln(os.Stderr, "memwallbench: first failure:", t.First)
	}
	fmt.Fprintf(os.Stderr, "memwallbench: serve-mix: %d rounds, %d requests, %d failed; p80 %.1f ms; p50 ms cold %.1f memo %.1f coalesced %.1f; late p95 %.1f ms; computed %v cached %v coalesced %v rejected %v; set-up samples %.4f s\n",
		rounds, t.Attempted, t.Failed, bench.Percentile(lat, 80), bench.Median(byClass[bench.Cold]), bench.Median(byClass[bench.Memo]), bench.Median(byClass[bench.Coalesced]),
		bench.Percentile(late, 95), counters["serve.cells.computed"], counters["serve.cells.cached"], counters["serve.coalesced"], counters["serve.rejected"], setups)
	values := map[string]float64{
		"setup_s":            bench.Median(setups),
		"latency_p50_ms":     bench.Median(lat),
		"cpu_s":              cpuSeconds / float64(t.Attempted),
		"peak_rss_mb":        bench.Median(rss),
		"within_limit_ratio": float64(within) / float64(t.Attempted),
	}
	// No reference sample can be taken while a round runs, so the times
	// are scaled by the run's median sample.
	scale := speed.Scale()
	fmt.Fprintf(os.Stderr, "memwallbench: host reference median %.1f ms over %d samples (nominal %v): times scaled by %.4f from setup_s %.4g, latency_p50_ms %.4g, cpu_s %.4g\n",
		1000*speed.Median(), speed.Samples(), bench.RefNominal, scale, values["setup_s"], values["latency_p50_ms"], values["cpu_s"])
	for _, name := range []string{"setup_s", "latency_p50_ms", "cpu_s"} {
		values[name] *= scale
	}
	return bench.NewResult(bench.EndToEnd, values, t)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
