package core

import "testing"

// TestSegmenterCuts walks the clean-cut rule through its three conditions:
// an open segment, an arrival past every open deadline, and an epoch
// boundary under hold > 1.
func TestSegmenterCuts(t *testing.T) {
	type step struct {
		t, dl  int // arrival round and deadline of the next request
		cut    bool
		hi     int // closed segment's last round, when cut
		reason string
	}
	cases := []struct {
		m     ServiceModel
		steps []step
	}{
		{UnitModel(), []step{
			{0, 2, false, 0, "first request opens the first segment"},
			{2, 3, false, 0, "round 2 is inside the open window"},
			{4, 4, true, 3, "round 4 is past every open deadline"},
			{4, 5, false, 0, "same round, same segment"},
			{6, 6, true, 5, "past again"},
		}},
		{ServiceModel{Hold: 2, Cap: 1}, []step{
			{0, 0, false, 0, "first request"},
			{1, 2, false, 0, "round 1 is past deadline 0 but not an epoch boundary"},
			{3, 3, false, 0, "round 3 is past deadline 2 but not an epoch boundary"},
			{4, 4, true, 3, "round 4 is past deadline 3 and on an epoch boundary"},
		}},
	}
	for _, c := range cases {
		s := NewSegmenter(c.m)
		if _, ok := s.Close(); ok {
			t.Fatalf("%s: an empty segmenter closed a segment", c.m)
		}
		for _, st := range c.steps {
			hi, ok := s.Cut(st.t)
			if ok != st.cut || (ok && hi != st.hi) {
				t.Fatalf("%s: Cut(%d) = %d, %v; want %d, %v (%s)", c.m, st.t, hi, ok, st.hi, st.cut, st.reason)
			}
			s.Add(st.dl)
		}
		last := c.steps[len(c.steps)-1]
		if hi, ok := s.Close(); !ok || hi != last.dl {
			t.Fatalf("%s: Close = %d, %v; want %d, true", c.m, hi, ok, last.dl)
		}
		if s.Count() != 0 {
			t.Fatalf("%s: %d requests left after Close", c.m, s.Count())
		}
	}
}
