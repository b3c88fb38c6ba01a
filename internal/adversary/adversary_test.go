package adversary

import (
	"math"
	"strings"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/strategies"
)

// measure runs the construction's target input against the given strategy and
// returns (OPT, ALG).
func measure(t *testing.T, c Construction, s core.Strategy) (int, int) {
	t.Helper()
	var res *core.Result
	var tr *core.Trace
	if c.Source != nil {
		res, tr = core.RunAdaptive(s, c.Source)
	} else {
		tr = c.Trace
		res = core.Run(s, tr)
	}
	if err := core.ValidateLog(tr, res.Log); err != nil {
		t.Fatalf("%s: invalid schedule: %v", c.Name, err)
	}
	return offline.Optimum(tr), res.Fulfilled
}

func TestFixAdversaryExactCounts(t *testing.T) {
	// Theorem 2.1: per phase OPT serves all 4d-2 requests, A_fix serves 2d;
	// the initial block (2d) is served by both.
	for _, d := range []int{2, 3, 4, 8, 16} {
		phases := 40
		c := Fix(d, phases)
		opt, alg := measure(t, c, strategies.NewFix())
		wantOPT := 2*d + phases*(4*d-2)
		wantALG := 2 * d * (phases + 1)
		if opt != wantOPT || alg != wantALG {
			t.Fatalf("d=%d: OPT=%d (want %d) ALG=%d (want %d)", d, opt, wantOPT, alg, wantALG)
		}
	}
}

func TestFixAdversaryConvergesToBound(t *testing.T) {
	d := 4
	prev := 0.0
	for _, phases := range []int{5, 20, 80} {
		c := Fix(d, phases)
		opt, alg := measure(t, c, strategies.NewFix())
		r := float64(opt) / float64(alg)
		if r <= prev {
			t.Fatalf("ratio not increasing with phases: %f then %f", prev, r)
		}
		if r > c.Bound {
			t.Fatalf("measured %f exceeds proven bound %f", r, c.Bound)
		}
		prev = r
	}
	if c := Fix(d, 400); math.Abs(float64(2*d+400*(4*d-2))/float64(2*d*401)-c.Bound) > 0.01 {
		t.Fatal("asymptote not near 2-1/d")
	}
}

func TestCurrentAdversaryMatchesAnalyticBound(t *testing.T) {
	// Theorem 2.2: the measured ratio equals the analytic finite-l forced
	// ratio exactly (the adversary drains groups in order at the predicted
	// rates), and grows towards e/(e-1).
	prev := 1.0
	for _, l := range []int{3, 4, 5, 6} {
		c := Current(l, 5)
		opt, alg := measure(t, c, strategies.NewCurrent())
		wantOPT := l * c.D * 5
		if opt != wantOPT {
			t.Fatalf("l=%d: OPT=%d want %d", l, opt, wantOPT)
		}
		r := float64(opt) / float64(alg)
		if math.Abs(r-CurrentBound(l)) > 1e-9 {
			t.Fatalf("l=%d: measured %.6f != analytic %.6f", l, r, CurrentBound(l))
		}
		if r <= prev {
			t.Fatalf("l=%d: ratio %f not increasing (prev %f)", l, r, prev)
		}
		prev = r
	}
	eOverEMinus1 := math.E / (math.E - 1)
	if CurrentBound(40) < 1.54 || CurrentBound(40) > eOverEMinus1 {
		t.Fatalf("CurrentBound(40)=%f not approaching e/(e-1)=%f", CurrentBound(40), eOverEMinus1)
	}
}

func TestFixBalanceAdversaryExactCounts(t *testing.T) {
	// Theorem 2.3: per phase OPT serves all 3d requests, A_fix_balance 2d+2.
	for _, d := range []int{4, 6, 8, 12, 16} {
		phases := 40
		c := FixBalance(d, phases)
		opt, alg := measure(t, c, strategies.NewFixBalance())
		wantOPT := 2*d + phases*3*d
		wantALG := 2*d + phases*(2*d+2)
		if opt != wantOPT || alg != wantALG {
			t.Fatalf("d=%d: OPT=%d (want %d) ALG=%d (want %d)", d, opt, wantOPT, alg, wantALG)
		}
	}
}

func TestEagerAdversaryExactCounts(t *testing.T) {
	// Theorem 2.4: per phase OPT serves all 4d requests, A_eager 3d.
	for _, d := range []int{2, 4, 6, 8} {
		phases := 40
		c := Eager(d, phases)
		opt, alg := measure(t, c, strategies.NewEager())
		wantOPT := 2*d + phases*4*d
		wantALG := 2*d + phases*3*d
		if opt != wantOPT || alg != wantALG {
			t.Fatalf("d=%d: OPT=%d (want %d) ALG=%d (want %d)", d, opt, wantOPT, alg, wantALG)
		}
	}
}

func TestEagerAdversaryAtD2HitsOtherStrategies(t *testing.T) {
	// The d=2 case of Theorem 2.4 also forces 4/3 on A_current,
	// A_fix_balance and A_balance (Table 1).
	phases := 40
	c := Eager(2, phases)
	wantOPT := 4 + phases*8
	wantALG := 4 + phases*6
	for _, s := range []core.Strategy{
		strategies.NewCurrent(), strategies.NewFixBalance(), strategies.NewBalance(),
	} {
		opt, alg := measure(t, c, s)
		if opt != wantOPT || alg != wantALG {
			t.Fatalf("%s: OPT=%d (want %d) ALG=%d (want %d)", s.Name(), opt, wantOPT, alg, wantALG)
		}
	}
}

// balanceExpected returns the exact (OPT, ALG) counts for the Theorem 2.5
// construction with the deterministic A_balance implementation.
func balanceExpected(x, k, intervals int) (opt, alg int) {
	d := 3*x - 1
	init := 2*d + k*d
	opt = init + intervals*(k*(5*x-1)+4*x)
	alg = init + intervals*(k*(4*x-1)+4*x)
	return
}

func TestBalanceAdversaryExactCounts(t *testing.T) {
	for _, x := range []int{1, 2, 3} {
		for _, k := range []int{2, 6} {
			intervals := 30
			c := Balance(x, k, intervals)
			opt, alg := measure(t, c, strategies.NewBalance())
			wantOPT, wantALG := balanceExpected(x, k, intervals)
			if opt != wantOPT || alg != wantALG {
				t.Fatalf("x=%d k=%d: OPT=%d (want %d) ALG=%d (want %d)",
					x, k, opt, wantOPT, alg, wantALG)
			}
		}
	}
}

func TestBalanceAdversaryApproachesBoundWithManyGroups(t *testing.T) {
	// The shared S'/S'' overhead dilutes the ratio by O(1/k); with many
	// groups the measured ratio must close most of the gap to (5d+2)/(4d+1).
	x := 2
	c := Balance(x, 64, 30)
	opt, alg := measure(t, c, strategies.NewBalance())
	r := float64(opt) / float64(alg)
	if r > c.Bound {
		t.Fatalf("measured %f exceeds bound %f", r, c.Bound)
	}
	if r < c.Bound-0.02 {
		t.Fatalf("measured %f too far below bound %f for k=64", r, c.Bound)
	}
}

func TestUniversalAdversaryBeatsEveryStrategy(t *testing.T) {
	// Theorem 2.6: every deterministic online algorithm loses at least
	// 45/41 on this adaptive input. Verify for all five global strategies,
	// EDF, and the baselines.
	bound := 45.0 / 41.0
	for _, s := range []core.Strategy{
		strategies.NewFix(), strategies.NewCurrent(), strategies.NewFixBalance(),
		strategies.NewEager(), strategies.NewBalance(),
		strategies.NewEDF(), strategies.NewEDFCoordinated(), strategies.NewFirstFit(),
	} {
		c := Universal(6, 25)
		opt, alg := measure(t, c, s)
		r := float64(opt) / float64(alg)
		if r < bound {
			t.Errorf("%s: ratio %.4f below universal bound %.4f", s.Name(), r, bound)
		}
	}
}

func TestUniversalAdversaryOptimumServesAll(t *testing.T) {
	// The generated trace must be fully serviceable offline: OPT serves all
	// 10d per cycle plus the initial block.
	d, cycles := 6, 10
	c := Universal(d, cycles)
	_, tr := core.RunAdaptive(strategies.NewEager(), c.Source)
	opt := offline.Optimum(tr)
	if opt != tr.NumRequests() {
		t.Fatalf("OPT %d < injected %d: construction not offline-feasible", opt, tr.NumRequests())
	}
	want := 6*d*(cycles+1) + 4*d*cycles
	if tr.NumRequests() != want {
		t.Fatalf("injected %d requests, want %d", tr.NumRequests(), want)
	}
}

func TestUniversalAdversaryDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 3∤d")
		}
	}()
	Universal(4, 1)
}

func TestEDFWorstCaseExactlyTwo(t *testing.T) {
	for _, d := range []int{1, 2, 4, 8} {
		c := EDFWorstCase(d, 30)
		opt, alg := measure(t, c, strategies.NewEDF())
		if opt != 2*alg {
			t.Fatalf("d=%d: OPT=%d ALG=%d, want exact factor 2", d, opt, alg)
		}
	}
}

func TestEDFCoordinatedEscapesWorstCase(t *testing.T) {
	// The coordinated ablation shows the loss is entirely due to
	// independent copies: with sibling cancellation the same input is
	// served optimally.
	c := EDFWorstCase(4, 30)
	opt, alg := measure(t, c, strategies.NewEDFCoordinated())
	if opt != alg {
		t.Fatalf("coordinated EDF should be optimal here: OPT=%d ALG=%d", opt, alg)
	}
}

func TestAdversariesNeverExceedUpperBounds(t *testing.T) {
	// Sanity: no adversarial input pushes a strategy above its proven upper
	// bound (Table 1 right column). The d=2 A_eager case is tight at 4/3.
	type ub func(d int) float64
	cases := []struct {
		c  Construction
		s  core.Strategy
		ub float64
	}{
		{Fix(4, 30), strategies.NewFix(), 2 - 1.0/4},
		{Current(4, 5), strategies.NewCurrent(), 2 - 1.0/12},
		{FixBalance(8, 30), strategies.NewFixBalance(), 2 - 2.0/8},
		{Eager(2, 30), strategies.NewEager(), 4.0 / 3},
		{Eager(8, 30), strategies.NewEager(), (3.0*8 - 2) / (2.0*8 - 1)},
		{Balance(3, 8, 30), strategies.NewBalance(), 6 * (8.0 - 1) / (4.0*8 - 3)},
	}
	for _, tc := range cases {
		opt, alg := measure(t, tc.c, tc.s)
		if float64(opt) > tc.ub*float64(alg)+1e-9 {
			t.Errorf("%s on %s: OPT=%d ALG=%d ratio %.4f exceeds UB %.4f",
				tc.s.Name(), tc.c.Name, opt, alg, float64(opt)/float64(alg), tc.ub)
		}
	}
}

func TestLCM(t *testing.T) {
	want := map[int]int{1: 1, 2: 2, 3: 6, 4: 12, 5: 60, 6: 60, 7: 420}
	for k, v := range want {
		if got := LCM(k); got != v {
			t.Fatalf("LCM(%d)=%d want %d", k, got, v)
		}
	}
}

func TestConstructionTracesAreValid(t *testing.T) {
	cs := []Construction{
		Fix(4, 10), Current(5, 3), FixBalance(6, 10), Eager(4, 10),
		Balance(2, 3, 10), LocalFix(3, 10), EDFWorstCase(3, 10),
	}
	for _, c := range cs {
		if c.Trace == nil {
			t.Fatalf("%s: nil trace", c.Name)
		}
		if err := c.Trace.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.Bound < 1 {
			t.Fatalf("%s: bound %f < 1", c.Name, c.Bound)
		}
	}
}

func TestLocalFixTraceOptimumServesAll(t *testing.T) {
	c := LocalFix(4, 20)
	if got, want := offline.Optimum(c.Trace), c.Trace.NumRequests(); got != want {
		t.Fatalf("OPT %d should serve all %d", got, want)
	}
}

func TestUniversalAnyDForcesTwelveElevenths(t *testing.T) {
	// The Theorem 2.6 remark: with Phase 1 shortened to floor(d/3) the
	// adversary still forces at least 12/11 for deadlines not divisible by
	// three. Verify for the strongest strategies (the weaker ones lose
	// more).
	for _, d := range []int{4, 5, 7, 8} {
		c := UniversalAnyD(d, 20)
		opt, alg := measure(t, c, strategies.NewBalance())
		r := float64(opt) / float64(alg)
		if r < 12.0/11.0 {
			t.Errorf("d=%d: ratio %.4f below 12/11", d, r)
		}
	}
}

func TestUniversalAnyDOfflineFeasible(t *testing.T) {
	for _, d := range []int{4, 5, 7} {
		c := UniversalAnyD(d, 8)
		_, tr := core.RunAdaptive(strategies.NewEager(), c.Source)
		if got, want := offline.Optimum(tr), tr.NumRequests(); got != want {
			t.Fatalf("d=%d: OPT %d < injected %d", d, got, want)
		}
	}
}

func TestUniversalAnyDMatchesUniversalWhenDivisible(t *testing.T) {
	// For 3 | d the generalized source must behave identically.
	a := Universal(6, 10)
	b := UniversalAnyD(6, 10)
	ra, ta := core.RunAdaptive(strategies.NewFix(), a.Source)
	rb, tb := core.RunAdaptive(strategies.NewFix(), b.Source)
	if ra.Fulfilled != rb.Fulfilled || ta.NumRequests() != tb.NumRequests() {
		t.Fatalf("divisible-d mismatch: %d/%d vs %d/%d",
			ra.Fulfilled, ta.NumRequests(), rb.Fulfilled, tb.NumRequests())
	}
}

func TestCurrentFactorialMatchesLCMVariant(t *testing.T) {
	// The paper's literal d = l! parameterization forces the same ratio as
	// the lcm variant (any d divisible by 1..l-1 works).
	for _, l := range []int{3, 4} {
		a := Current(l, 3)
		b := CurrentFactorial(l, 3)
		_, algA := measure(t, a, strategies.NewCurrent())
		optB, algB := measure(t, b, strategies.NewCurrent())
		ra := CurrentBound(l)
		rb := float64(optB) / float64(algB)
		if math.Abs(ra-rb) > 1e-9 {
			t.Fatalf("l=%d: factorial ratio %.6f != analytic %.6f", l, rb, ra)
		}
		_ = algA
	}
}

func TestConstructorParameterValidation(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"Fix d<2", func() { Fix(1, 1) }},
		{"Current l<2", func() { Current(1, 1) }},
		{"FixBalance odd d", func() { FixBalance(5, 1) }},
		{"FixBalance d<2", func() { FixBalance(0, 1) }},
		{"Eager odd d", func() { Eager(3, 1) }},
		{"Balance x<1", func() { Balance(0, 2, 1) }},
		{"Balance k<1", func() { Balance(1, 0, 1) }},
		{"Universal 3∤d", func() { Universal(5, 1) }},
		{"UniversalAnyD d<4", func() { UniversalAnyD(3, 1) }},
		{"LocalFix d<1", func() { LocalFix(0, 1) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestConstructionString(t *testing.T) {
	s := Fix(4, 2).String()
	if s == "" || !strings.Contains(s, "Theorem 2.1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestExactCountsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The closed-form predictions at larger deadlines and group counts —
	// a soak test for index arithmetic in the constructions and the
	// matching machinery.
	c := Fix(32, 20)
	opt, alg := measure(t, c, strategies.NewFix())
	if opt != 64+20*(4*32-2) || alg != 2*32*21 {
		t.Fatalf("fix d=32: OPT=%d ALG=%d", opt, alg)
	}
	c = Eager(24, 15)
	opt, alg = measure(t, c, strategies.NewEager())
	if opt != 48+15*4*24 || alg != 48+15*3*24 {
		t.Fatalf("eager d=24: OPT=%d ALG=%d", opt, alg)
	}
	c = Balance(8, 16, 12) // d = 23, n = 50
	opt, alg = measure(t, c, strategies.NewBalance())
	wantOPT, wantALG := balanceExpected(8, 16, 12)
	if opt != wantOPT || alg != wantALG {
		t.Fatalf("balance x=8: OPT=%d (want %d) ALG=%d (want %d)", opt, wantOPT, alg, wantALG)
	}
}
