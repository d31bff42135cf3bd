package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"memwall/internal/checkpoint"
	"memwall/memwallbench/bench"
)

// ledgerPass journals a grid's cells into a fresh checkpoint ledger, one
// Record per cell, then looks each up again and checks it round-trips.
func ledgerPass(rec *recorder, dir string, payloads map[string][]byte, t *bench.Tally) (map[string]float64, error) {
	led, err := checkpoint.Open(checkpoint.Options{Dir: dir, Fingerprint: "memwallbench-ledger-pass", Resume: true})
	if err != nil {
		return nil, err
	}
	defer led.Close()
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	passID := rec.id("ledger")
	start := time.Now()
	for _, k := range keys {
		t0 := time.Now()
		led.Record(k, payloads[k])
		rec.add("checkpoint.Record", "", passID, 0, t0, time.Now(), map[string]any{"key": k})
	}
	for _, k := range keys {
		t0 := time.Now()
		got, ok := led.Lookup(k)
		rec.add("checkpoint.Lookup", "", passID, 0, t0, time.Now(), map[string]any{"key": k})
		var err error
		if !ok || string(got) != string(payloads[k]) {
			err = fmt.Errorf("ledger lookup of %s did not return the recorded cell", k)
		}
		t.Check(err)
	}
	if led.WriteFailed() {
		t.Check(fmt.Errorf("ledger journaling failed"))
	}
	rec.add("ledger", passID, "", 0, start, time.Now(), nil)
	records := rec.durations("checkpoint.Record")
	lookups := rec.durations("checkpoint.Lookup")
	return map[string]float64{
		"checkpoint.record_ms_p50": bench.Median(records),
		"checkpoint.record_ms_max": bench.Percentile(records, 100),
		"checkpoint.lookup_us":     bench.Median(lookups) * 1e3,
		"checkpoint.records":       float64(led.Len()),
	}, nil
}

// serveSession runs one round of the serve-mix schedule against a
// `memwall serve` spawned without telemetry flags and reads the server's
// own accounting. It re-derives every cell of the round with a direct
// core.Decompose, checks each against the committed reference at
// refPath, and checks every response against both.
func serveSession(ctx context.Context, rec *recorder, memwall, dir, refPath string, seed uint64, workers int, t *bench.Tally) (map[string]float64, error) {
	entries, err := bench.Schedule(seed, 1)
	if err != nil {
		return nil, err
	}
	ref, err := bench.LoadServeRef(refPath)
	if err != nil {
		return nil, err
	}
	passID := rec.id("serve")
	start := time.Now()
	srv, setup, err := bench.StartServer(ctx, memwall, "-checkpoint-dir", dir)
	if err != nil {
		return nil, err
	}
	rec.add("serve.spawn", "", passID, 0, start, start.Add(setup), nil)
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.Stop()
		}
	}()
	genStart := time.Now()
	outcomes, err := bench.Generate(ctx, bench.Client(workers), srv.Base, entries, workers)
	if err != nil {
		return nil, err
	}
	counters, err := srv.Counters(ctx)
	if err != nil {
		return nil, err
	}
	simInsts, err := srv.SimInsts(ctx)
	if err != nil {
		return nil, err
	}
	stopped = true
	if _, err := srv.Stop(); err != nil {
		return nil, err
	}
	rec.add("serve", passID, "", 0, start, time.Now(), map[string]any{"requests": len(outcomes)})

	seen := map[string]bool{}
	var cells []bench.Cell
	for _, e := range entries {
		for _, c := range e.Spec.Cells() {
			if !seen[c.Key()] {
				seen[c.Key()] = true
				cells = append(cells, c)
			}
		}
	}
	want, err := decomposeCells(ctx, cells, workers)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		err := bench.SamePayload(want[c.Key()], ref[c.Key()])
		if err != nil {
			err = fmt.Errorf("reference payload of %s differs from a direct core.Decompose: %w", c.Key(), err)
		}
		t.Check(err)
	}
	var requestedInsts int64
	var busy float64
	var computed int
	var late []float64
	byClass := map[bench.Class][]float64{}
	for i, o := range outcomes {
		reqID := fmt.Sprintf("req-%d.%d", o.Entry.ID, o.Copy)
		due := genStart.Add(o.Entry.Due)
		lane := 100 + i
		rec.add("loadgen.request", reqID, passID, lane, due, genStart.Add(o.Done), map[string]any{"class": string(o.Entry.Class), "cells": len(o.Entry.Spec.Cells())})
		rec.add("loadgen.late", "", reqID, lane, due, genStart.Add(o.Sent), nil)
		rec.add("serve.request", "", reqID, lane, genStart.Add(o.Sent), genStart.Add(o.Done), map[string]any{"status": o.Status})
		late = append(late, float64(o.Late())/1e6)
		resp, err := bench.CheckResponse(o, want)
		if err == nil {
			_, err = bench.CheckResponse(o, ref)
		}
		if !t.Check(err) {
			continue
		}
		byClass[o.Entry.Class] = append(byClass[o.Entry.Class], float64(o.Latency())/1e6)
		busy += resp.Stats.WallSeconds
		computed += resp.Stats.Computed
		for _, c := range o.Entry.Spec.Cells() {
			var n struct{ Insts int64 }
			if err := json.Unmarshal(want[c.Key()].Counts, &n); err != nil {
				return nil, err
			}
			requestedInsts += n.Insts
		}
	}
	out := map[string]float64{
		"serve.cells_computed":          counters["serve.cells.computed"],
		"serve.cells_cached":            counters["serve.cells.cached"],
		"serve.coalesced":               counters["serve.coalesced"],
		"serve.rejected":                counters["serve.rejected"],
		"serve.sims_per_cell_requested": float64(simInsts) / float64(max(requestedInsts, 1)),
		"serve.cell_busy_ms":            busy * 1e3 / float64(max(computed, 1)),
		"serve.cold_p50_ms":             bench.Median(byClass[bench.Cold]),
		"serve.memo_p50_ms":             bench.Median(byClass[bench.Memo]),
		"serve.coalesced_p50_ms":        bench.Median(byClass[bench.Coalesced]),
		"loadgen.late_p95_ms":           bench.Percentile(late, 95),
	}
	if counters["serve.rejected"] > 0 {
		fmt.Fprintf(os.Stderr, "memwallbench: serve rejected %v requests\n", counters["serve.rejected"])
	}
	return out, nil
}
