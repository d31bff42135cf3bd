package main

import (
	"time"

	"memwall/internal/cache"
	"memwall/internal/corpus"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// trafficSizes are the cache sizes of Tables 7 and 8: 1 KB to 2 MB.
var trafficSizes = []int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10,
	64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20,
}

// trafficPass is the trace-driven half of the paper as memwall table7
// and table8 run it: for each SPEC92 benchmark, a fresh corpus entry
// materializes the reference trace and its word-grain future table, then
// a 32-byte direct-mapped cache and a write-validate MTC replay it at
// every size.
type trafficPass struct {
	wall   time.Duration
	counts counts
}

func runTraffic(rec *recorder) (trafficPass, error) {
	var t trafficPass
	start := time.Now()
	passID := rec.id("traffic")
	corp := corpus.New(corpus.Options{})
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		e := corp.Get(name, 1)
		t0 := time.Now()
		if _, err := e.Program(); err != nil {
			return t, err
		}
		t1 := time.Now()
		rec.add("corpus.Program", "", passID, 0, t0, t1, map[string]any{"benchmark": name})
		refs, err := e.Refs()
		if err != nil {
			return t, err
		}
		t2 := time.Now()
		rec.add("corpus.Refs", "", passID, 0, t1, t2, map[string]any{"benchmark": name})
		fut, err := e.Future(trace.WordSize)
		if err != nil {
			return t, err
		}
		rec.add("corpus.Future", "", passID, 0, t2, time.Now(), map[string]any{"benchmark": name})
		n := int64(len(refs))
		for _, size := range trafficSizes {
			t0 := time.Now()
			c, err := cache.New(cache.Config{Size: size, BlockSize: 32, Assoc: 1})
			if err != nil {
				return t, err
			}
			st := c.RunRefs(refs)
			t1 := time.Now()
			rec.add("cache.RunRefs", "", passID, 0, t0, t1, map[string]any{"benchmark": name, "size": size, "refs": n})
			mst, err := mtc.SimulateRefs(mtc.Config{Size: size, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}, fut, refs)
			if err != nil {
				return t, err
			}
			rec.add("mtc.SimulateRefs", "", passID, 0, t1, time.Now(), map[string]any{"benchmark": name, "size": size, "refs": n})
			t.counts.CacheRefs += n
			t.counts.MTCRefs += n
			t.counts.CacheTraffic += int64(st.TrafficBytes())
			t.counts.MTCTraffic += int64(mst.TrafficBytes())
		}
	}
	t.wall = time.Since(start)
	rec.add("traffic", passID, "", 0, start, time.Now(), nil)
	return t, nil
}
