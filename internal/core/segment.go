package core

// Segmenter finds the clean cuts of a request stream fed in nondecreasing
// arrival-round order. The offline optimum (§1.2) is a maximum matching of
// the request/slot graph, and that graph falls apart at every round boundary
// no deadline window crosses: a request arriving at round t opens a new time
// segment when t lies past the deadline of every request of the open segment.
// Under Hold > 1 the cut must also fall on an epoch boundary (t a multiple of
// Hold), because the epoch relaxation shares an epoch's slots among all of
// its rounds. Segment optima then sum exactly to the whole stream's optimum.
//
// Every consumer that segments a stream — the offline segmented and
// incremental solvers, the JSONL segment cutter, serve's rolling optimum and
// the streamed adaptive measurement — applies the rule through this type, so
// the rule is written once. Use NewSegmenter; the zero value is not ready.
type Segmenter struct {
	hold  int
	count int // requests in the open segment
	maxDL int // latest deadline in the open segment; -1 when it is empty
}

// NewSegmenter returns a segmenter with no open segment under service model
// m.
func NewSegmenter(m ServiceModel) Segmenter {
	return Segmenter{hold: m.Norm().Hold, maxDL: -1}
}

// Cut reports whether a request arriving at round t opens a new segment: the
// open segment holds requests, t is past every one of their deadlines, and t
// is an epoch boundary. If so the open segment is closed and hi is its last
// round (its latest deadline); the request then goes into the new segment
// through Add.
func (s *Segmenter) Cut(t int) (hi int, ok bool) {
	if s.count > 0 && t > s.maxDL && t%s.hold == 0 {
		return s.Close()
	}
	return 0, false
}

// Add records one request with deadline round dl in the open segment.
func (s *Segmenter) Add(dl int) {
	s.count++
	if dl > s.maxDL {
		s.maxDL = dl
	}
}

// Close ends the open segment at the end of the stream. It reports whether
// the segment held requests and, if so, its last round.
func (s *Segmenter) Close() (hi int, ok bool) {
	hi, ok = s.maxDL, s.count > 0
	s.count, s.maxDL = 0, -1
	return hi, ok
}

// Count returns the number of requests in the open segment.
func (s *Segmenter) Count() int { return s.count }
