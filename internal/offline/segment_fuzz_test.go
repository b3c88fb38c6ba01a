package offline

import (
	"bytes"
	"slices"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/trace"
	"reqsched/internal/workload"
)

// maxFuzzRecords caps the requests one fuzz input decodes to, so every
// execution stays a few milliseconds even for the monolithic oracle.
const maxFuzzRecords = 96

// fuzzRecords decodes a fuzz input into stream records over n resources with
// default window d, three bytes per request: the gap to the previous arrival
// round (up to 2d+1 rounds, so both clean cuts and overlaps occur), the
// request's own window (1..d), and its alternatives (a first resource in the
// low nibble; bit 7 adds a distinct second one, offset by bits 4..6).
func fuzzRecords(n, d int, data []byte) []trace.StreamRecord {
	var recs []trace.StreamRecord
	t := 0
	for i := 0; i+2 < len(data) && len(recs) < maxFuzzRecords; i += 3 {
		t += int(data[i]) % (2*d + 2)
		a := int(data[i+2]&0x0f) % n
		alts := []int{a}
		if n > 1 && data[i+2]&0x80 != 0 {
			alts = append(alts, (a+1+int(data[i+2]>>4&7)%(n-1))%n)
		}
		recs = append(recs, trace.StreamRecord{T: t, D: 1 + int(data[i+1])%d, Alts: alts})
	}
	return recs
}

// fuzzEncode is fuzzRecords' inverse for a trace whose gaps, windows and
// resources fit the encoding (two alternatives at most): it turns a seed
// trace into a fuzz input.
func fuzzEncode(tr *core.Trace) []byte {
	var data []byte
	prev := 0
	for _, r := range tr.Requests() {
		alts := byte(r.Alts[0])
		if len(r.Alts) > 1 {
			off := (r.Alts[1] - r.Alts[0] - 1 + tr.N) % tr.N
			alts |= 0x80 | byte(off)<<4
		}
		data = append(data, byte(r.Arrive-prev), byte(r.D-1), alts)
		prev = r.Arrive
	}
	return data
}

// FuzzSegmentCuts pins the one clean-cut rule under every service model it
// has to honour: IncrementalOpt seals at exactly SegmentTrace's cut rounds,
// OptimumStream over the JSONL form counts the same segments, and every OPT
// path — Optimum on the whole trace, the sum of IncrementalOpt's seals,
// OptimumStream and the segment pool's Profit on the unweighted trace —
// reports the Dinic max-flow optimum of the full graph. Seeds are the
// cmd/verify hold × cap grid's reusable workloads, plus gapped inputs that do
// cut.
func FuzzSegmentCuts(f *testing.F) {
	for _, h := range []int{1, 2, 4} {
		for _, capc := range []int{1, 2, 3} {
			m := core.ServiceModel{Hold: h, Cap: capc}
			tr := workload.Reusable(workload.Config{N: 6, D: 5, Rounds: 12, Seed: int64(10*h + capc)}, m, 0.9)
			f.Add(uint8(6), uint8(5), uint8(h), uint8(capc), fuzzEncode(tr))
			f.Add(uint8(3), uint8(2), uint8(h), uint8(capc), []byte{0, 1, 0x81, 0, 0, 0x92, 5, 1, 0x80, 3, 0, 2, 1, 1, 0x81})
		}
	}
	f.Fuzz(func(t *testing.T, nb, db, holdb, capb uint8, data []byte) {
		n, d := 1+int(nb)%6, 1+int(db)%6
		m := core.ServiceModel{Hold: 1 + int(holdb)%4, Cap: 1 + int(capb)%3}
		recs := fuzzRecords(n, d, data)
		b := core.NewBuilder(n, d)
		b.SetModel(m)
		for _, r := range recs {
			b.AddWindow(r.T, r.D, r.Alts...)
		}
		tr := b.Build()
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded trace invalid: %v", err)
		}

		// Cut rounds: the arrival round of every segment's first request
		// after the first segment.
		var want []int
		for i, seg := range SegmentTrace(tr) {
			if i > 0 {
				want = append(want, seg.Lo)
			}
		}
		o := NewIncrementalOptModel(n, m)
		var got []int
		fed := 0
		for _, r := range recs {
			v, sealed := o.Add(r.T, r.D, r.Alts)
			if sealed {
				got = append(got, r.T)
			}
			fed += v
		}
		fed += o.Seal()
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d d=%d %s: SegmentTrace cuts at %v, IncrementalOpt seals at %v", n, d, m, want, got)
		}

		var buf bytes.Buffer
		if err := trace.WriteStream(&buf, tr); err != nil {
			t.Fatal(err)
		}
		streamed, nsegs, err := OptimumStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if wantSegs := min(len(recs), len(want)+1); nsegs != wantSegs {
			t.Fatalf("n=%d d=%d %s: OptimumStream counts %d segments, want %d", n, d, m, nsegs, wantSegs)
		}
		opt := optimumByFlow(tr)
		profit, _ := Solve(tr, Profit, 2)
		checks := []struct {
			name string
			v    int
		}{
			{"Optimum", Optimum(tr)},
			{"IncrementalOpt seals", fed},
			{"Solve(tr, Profit, 2)", profit},
			{"OptimumStream", streamed},
		}
		for _, c := range checks {
			if c.v != opt {
				t.Fatalf("n=%d d=%d %s (%d segments): %s = %d, flow = %d", n, d, m, nsegs, c.name, c.v, opt)
			}
		}
	})
}
