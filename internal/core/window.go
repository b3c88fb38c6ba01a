package core

import "fmt"

// Window is the sliding schedule the engine maintains: for each resource, the
// assignments to the next `depth` rounds (the current round t through
// t+depth-1). Strategies mutate it during their Round callback; at the end of
// the round the engine fulfills every request assigned to the current row and
// slides the window forward.
//
// All mutations are validated: a request can only be assigned to a free slot
// of one of its alternative resources, within [current round, deadline], and
// only while unassigned. This makes an invalid schedule impossible to express,
// which is the first of the reproduction's global invariants.
//
// Under a non-unit ServiceModel a resource has model.Cap storage cells per
// round and a request served at round t occupies one capacity unit for the
// rounds [t, t+model.Hold). Feasibility is tracked as per-round occupancy
// counts (occ): because every hold interval has the same length, "occupancy
// never exceeds Cap in any round" is exactly equivalent to a consistent
// per-unit realization, so no explicit unit bookkeeping is needed. Under the
// unit model occ stays nil and every operation takes the legacy code path
// untouched — the basis of the bit-identity and zero-alloc guarantees.
type Window struct {
	n     int
	depth int
	model ServiceModel
	t     int          // current round
	rows  [][]*Request // rows[t' % depth][res*Cap + cell]
	where map[int]slotRef

	// occ[t' % occLen][res] counts capacity units of res busy in round t' —
	// both planned assignments and holds of already-served requests. nil for
	// the unit model. occLen = depth + Hold - 1 so a request starting at the
	// last window round can record its full hold span.
	occ    [][]int32
	occLen int
}

type slotRef struct{ res, round, cell int }

// NewWindow returns a window over n resources looking depth rounds ahead,
// positioned at round 0, under the unit service model.
func NewWindow(n, depth int) *Window {
	return NewWindowModel(n, depth, UnitModel())
}

// NewWindowModel returns a window over n resources looking depth rounds
// ahead, positioned at round 0, under service model m.
func NewWindowModel(n, depth int, m ServiceModel) *Window {
	m = m.Norm()
	if err := m.Validate(); err != nil {
		panic(err)
	}
	w := &Window{
		n:     n,
		depth: depth,
		model: m,
		rows:  make([][]*Request, depth),
		where: make(map[int]slotRef),
	}
	for i := range w.rows {
		w.rows[i] = make([]*Request, n*m.Cap)
	}
	if !m.IsUnit() {
		w.occLen = depth + m.Hold - 1
		w.occ = make([][]int32, w.occLen)
		for i := range w.occ {
			w.occ[i] = make([]int32, n)
		}
	}
	return w
}

// N returns the number of resources.
func (w *Window) N() int { return w.n }

// Depth returns the lookahead depth in rounds.
func (w *Window) Depth() int { return w.depth }

// Model returns the service model the window schedules under.
func (w *Window) Model() ServiceModel { return w.model }

// Round returns the current round t. Valid slot rounds are t .. t+Depth()-1.
func (w *Window) Round() int { return w.t }

func (w *Window) row(round int) []*Request {
	if round < w.t || round >= w.t+w.depth {
		panic(fmt.Sprintf("core: slot round %d outside window [%d,%d)", round, w.t, w.t+w.depth))
	}
	return w.rows[round%w.depth]
}

func (w *Window) occAdd(res, round, delta int) {
	for rr := round; rr < round+w.model.Hold; rr++ {
		w.occ[rr%w.occLen][res] += int32(delta)
	}
}

// At returns the request assigned to resource res at the given round, or nil.
// Under capacities > 1 it returns the first of possibly several assignments.
func (w *Window) At(res, round int) *Request {
	row := w.row(round)
	if w.occ == nil {
		return row[res]
	}
	c0 := res * w.model.Cap
	for c := c0; c < c0+w.model.Cap; c++ {
		if row[c] != nil {
			return row[c]
		}
	}
	return nil
}

// Free reports whether request service can start on resource res at the given
// round: under the unit model, that its slot is unassigned; under a general
// model, that a capacity unit of res is available for the full hold span
// [round, round+Hold).
func (w *Window) Free(res, round int) bool {
	if w.occ == nil {
		return w.row(round)[res] == nil
	}
	w.row(round) // bounds-check the start round
	capc := int32(w.model.Cap)
	for rr := round; rr < round+w.model.Hold; rr++ {
		if w.occ[rr%w.occLen][res] >= capc {
			return false
		}
	}
	return true
}

// AssignedCount returns how many requests are assigned to resource res at the
// given round (0 or 1 under the unit model, up to Cap otherwise).
func (w *Window) AssignedCount(res, round int) int {
	row := w.row(round)
	if w.occ == nil {
		if row[res] != nil {
			return 1
		}
		return 0
	}
	c0, count := res*w.model.Cap, 0
	for c := c0; c < c0+w.model.Cap; c++ {
		if row[c] != nil {
			count++
		}
	}
	return count
}

// OccupancyAt returns how many capacity units of resource res are busy at the
// given round — planned assignments plus holds of already-served requests.
func (w *Window) OccupancyAt(res, round int) int {
	if w.occ == nil {
		if w.row(round)[res] != nil {
			return 1
		}
		return 0
	}
	if round < w.t || round >= w.t+w.occLen {
		panic(fmt.Sprintf("core: occupancy round %d outside [%d,%d)", round, w.t, w.t+w.occLen))
	}
	return int(w.occ[round%w.occLen][res])
}

// AssignmentOf returns where request r is currently assigned.
func (w *Window) AssignmentOf(r *Request) (res, round int, ok bool) {
	ref, ok := w.where[r.ID]
	return ref.res, ref.round, ok
}

// Assigned reports whether request r currently holds a slot.
func (w *Window) Assigned(r *Request) bool {
	_, ok := w.where[r.ID]
	return ok
}

// Assign gives a slot of (res, round) to request r. It panics if the resource
// has no capacity free over the hold span, the round is outside the window,
// past the request's deadline, before its arrival, res is not one of its
// alternatives, or if r is already assigned (call Unassign first to move a
// request).
func (w *Window) Assign(r *Request, res, round int) {
	row := w.row(round)
	if res < 0 || res >= w.n {
		panic(fmt.Sprintf("core: resource %d outside [0,%d)", res, w.n))
	}
	cell := res
	if w.occ == nil {
		if row[res] != nil {
			panic(fmt.Sprintf("core: slot (%d,%d) already holds %v", res, round, row[res]))
		}
	} else {
		capc := int32(w.model.Cap)
		for rr := round; rr < round+w.model.Hold; rr++ {
			if w.occ[rr%w.occLen][res] >= capc {
				panic(fmt.Sprintf("core: resource %d at capacity in round %d for start at round %d", res, rr, round))
			}
		}
		// A storage cell must exist: assignments starting this round are a
		// subset of this round's occupancy, which is below Cap.
		cell = -1
		c0 := res * w.model.Cap
		for c := c0; c < c0+w.model.Cap; c++ {
			if row[c] == nil {
				cell = c
				break
			}
		}
		if cell < 0 {
			panic(fmt.Sprintf("core: no free cell on resource %d at round %d", res, round))
		}
	}
	if round > r.Deadline() {
		panic(fmt.Sprintf("core: %v assigned past deadline at round %d", r, round))
	}
	if round < r.Arrive {
		panic(fmt.Sprintf("core: %v assigned before arrival at round %d", r, round))
	}
	if !r.HasAlt(res) {
		panic(fmt.Sprintf("core: %v assigned to non-alternative %d", r, res))
	}
	if ref, ok := w.where[r.ID]; ok {
		panic(fmt.Sprintf("core: %v already assigned at (%d,%d)", r, ref.res, ref.round))
	}
	row[cell] = r
	w.where[r.ID] = slotRef{res, round, cell}
	if w.occ != nil {
		w.occAdd(res, round, 1)
	}
}

// Unassign releases the slot held by r, if any, freeing its occupancy.
func (w *Window) Unassign(r *Request) {
	ref, ok := w.where[r.ID]
	if !ok {
		return
	}
	w.rows[ref.round%w.depth][ref.cell] = nil
	delete(w.where, r.ID)
	if w.occ != nil {
		w.occAdd(ref.res, ref.round, -1)
	}
}

// consume removes r's assignment because the engine is serving it now: the
// storage cell is released but — unlike Unassign — the occupancy of the hold
// span [round, round+Hold) stays busy until those rounds slide past.
func (w *Window) consume(r *Request) {
	ref, ok := w.where[r.ID]
	if !ok {
		return
	}
	w.rows[ref.round%w.depth][ref.cell] = nil
	delete(w.where, r.ID)
}

// dropHeldAt filters reqs in place, dropping every request that holds a cell
// of the given round: the requests the engine serves when that round is
// current. A request can hold only cells of its own alternatives, so the test
// costs at most len(Alts)·Cap pointer compares and no where lookup.
func (w *Window) dropHeldAt(round int, reqs []*Request) []*Request {
	row := w.row(round)
	capc := w.model.Cap
	live := reqs[:0]
	for _, r := range reqs {
		if !heldIn(row, capc, r) {
			live = append(live, r)
		}
	}
	return live
}

// heldIn reports whether row holds r in a cell of one of r's alternatives.
func heldIn(row []*Request, capc int, r *Request) bool {
	for _, a := range r.Alts {
		for _, q := range row[a*capc : (a+1)*capc] {
			if q == r {
				return true
			}
		}
	}
	return false
}

// Snapshot returns all current assignments. The order is deterministic:
// ascending (round, resource).
func (w *Window) Snapshot() []Assignment {
	return w.AppendAssignments(make([]Assignment, 0, len(w.where)))
}

// AppendAssignments appends all current assignments to dst and returns the
// extended slice, in the same deterministic ascending (round, resource) order
// as Snapshot. Callers that snapshot every round pass a reused buffer
// (dst[:0]) to avoid the per-round allocation.
func (w *Window) AppendAssignments(dst []Assignment) []Assignment {
	capc := w.model.Cap
	for round := w.t; round < w.t+w.depth; round++ {
		row := w.rows[round%w.depth]
		for cell, r := range row {
			if r != nil {
				dst = append(dst, Assignment{Req: r, Res: cell / capc, Round: round})
			}
		}
	}
	return dst
}

// NumAssigned returns the number of requests currently holding a slot.
func (w *Window) NumAssigned() int { return len(w.where) }

// Reset clears every assignment in the window, keeping the allocated storage.
// Strategies that recompute their matching from scratch each round (A_eager,
// A_balance) snapshot, reset and re-apply. Occupancy held by already-served
// requests survives a Reset — only planned assignments are withdrawn.
func (w *Window) Reset() {
	if w.occ != nil {
		for _, ref := range w.where {
			w.occAdd(ref.res, ref.round, -1)
		}
	}
	for _, row := range w.rows {
		for i := range row {
			row[i] = nil
		}
	}
	clear(w.where)
}

// FreeSlotsFor returns the free slots request r could take right now, in
// preference order: alternatives in listed order, then ascending round. This
// is the deterministic "first listed alternative, earliest slot" tie-break
// the adversary constructions rely on.
func (w *Window) FreeSlotsFor(r *Request) []Assignment {
	var out []Assignment
	last := w.lastRoundFor(r)
	for _, res := range r.Alts {
		for round := w.t; round <= last; round++ {
			if w.Free(res, round) {
				out = append(out, Assignment{Req: r, Res: res, Round: round})
			}
		}
	}
	return out
}

// FirstFreeSlot returns the first slot of FreeSlotsFor(r) without building
// the slice; ok is false when r has no free slot.
func (w *Window) FirstFreeSlot(r *Request) (res, round int, ok bool) {
	last := w.lastRoundFor(r)
	for _, a := range r.Alts {
		for rd := w.t; rd <= last; rd++ {
			if w.Free(a, rd) {
				return a, rd, true
			}
		}
	}
	return 0, 0, false
}

// lastRoundFor is the last round of the window r may be served in: its
// deadline, clipped to the window.
func (w *Window) lastRoundFor(r *Request) int {
	return min(r.Deadline(), w.t+w.depth-1)
}

// advance slides the window one round forward. The engine calls this after
// consuming the current row; the row must already be empty.
func (w *Window) advance() {
	row := w.rows[w.t%w.depth]
	for i, r := range row {
		if r != nil {
			panic(fmt.Sprintf("core: advancing over unconsumed slot (%d,%d)=%v", i/w.model.Cap, w.t, r))
		}
	}
	if w.occ != nil {
		// Round t is leaving the window; its occupancy index will be reused
		// for round t+occLen, which must start empty.
		clear(w.occ[w.t%w.occLen])
	}
	w.t++
}

// Assignment records that a request holds (or held) the slot of resource Res
// in round Round.
type Assignment struct {
	Req   *Request
	Res   int
	Round int
}
