package main

import (
	"context"
	"encoding/json"
	"fmt"

	"memwall/internal/core"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
	"memwall/memwallbench/bench"
)

// decomposeCells computes each cell's payload directly, the way serve's
// computeCell does: the generated program at the cell's scale, the named
// machine at its cacheScale, and a plain core.Decompose with no
// telemetry attached.
func decomposeCells(ctx context.Context, cells []bench.Cell, workers int) (map[string]bench.Payload, error) {
	type progKey struct {
		name  string
		scale int
	}
	progs := map[progKey]*workload.Program{}
	for _, c := range cells {
		k := progKey{c.Benchmark, c.Scale}
		if progs[k] == nil {
			p, err := workload.Generate(c.Benchmark, c.Scale)
			if err != nil {
				return nil, err
			}
			progs[k] = p
		}
	}
	payloads, err := runner.Map(ctx, runner.Config{Workers: workers}, len(cells),
		func(ctx context.Context, i int, _ *telemetry.Tracer) (bench.Payload, error) {
			c := cells[i]
			suite := workload.SPEC92
			if c.Suite == workload.SPEC95.String() {
				suite = workload.SPEC95
			}
			m, err := core.MachineByName(suite, c.Experiment, c.CacheScale)
			if err != nil {
				return bench.Payload{}, err
			}
			res, err := core.Decompose(m, progs[progKey{c.Benchmark, c.Scale}].Stream())
			if err != nil {
				return bench.Payload{}, fmt.Errorf("%s: %w", c.Key(), err)
			}
			d, err := json.Marshal(res.Decomposition)
			if err != nil {
				return bench.Payload{}, err
			}
			n, err := json.Marshal(res.Full)
			if err != nil {
				return bench.Payload{}, err
			}
			return bench.Payload{Decomposition: d, Counts: n}, nil
		})
	if err != nil {
		return nil, err
	}
	out := make(map[string]bench.Payload, len(cells))
	for i, c := range cells {
		out[c.Key()] = payloads[i]
	}
	return out, nil
}
