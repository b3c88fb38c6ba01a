package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// refRecords sizes the reference task to about 15 ms on the tuning host.
const refRecords = 8000

// refNominal is the reference task's median time on the tuning host (2
// vCPUs, go1.24.0) in a quiet period; it only fixes the scale of the
// speed-adjusted metrics.
const refNominal = 15 * time.Millisecond

var refSink int

// refTask is fixed, benchmark-owned work with the program's mix — PRNG
// draws, JSON lines built with strconv and decoded with encoding/json, small
// allocations — timed before every pass. The host it was tuned on is shared:
// whole minutes run 20–45 % slower than others, in CPU time as well as wall
// time, and every pass of a run slows alike. The reference slows with them,
// so the ratio of a pass's time to the reference's time holds steady where
// the raw times do not.
func refTask() time.Duration {
	var rec struct {
		T    int   `json:"t"`
		Alts []int `json:"alts"`
	}
	var line []byte
	x := uint64(0x9E3779B97F4A7C15)
	sum := 0
	t0 := time.Now()
	for i := 0; i < refRecords; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line = append(line[:0], `{"t":`...)
		line = strconv.AppendInt(line, int64(i/50), 10)
		line = append(line, `,"alts":[`...)
		line = strconv.AppendInt(line, int64(x%16), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(x>>8%16), 10)
		line = append(line, "]}"...)
		rec.Alts = nil
		if err := json.Unmarshal(line, &rec); err != nil {
			panic(fmt.Sprintf("reference task: %v", err))
		}
		sum += rec.T + rec.Alts[0] + rec.Alts[1]
	}
	d := time.Since(t0)
	refSink += sum
	return d
}
