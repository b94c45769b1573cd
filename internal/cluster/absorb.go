package cluster

import (
	"math"
	"slices"

	"sring/internal/netlist"
)

// Incremental absorption. The paper evaluates every candidate vertex at
// every ring position by rescanning the whole trial ring with
// ringOrderLongest — O(len + msgs) per trial, O(n·(n+m)) per absorption
// step. Inserting a vertex c into segment pos only changes path lengths in
// a structured way, though: the segment (a, b) = (order[pos], order[pos+1])
// grows by delta = d(a,c) + d(c,b) − d(a,b), a message's forward path grows
// by delta exactly when its arc covers segment pos (its reverse path grows
// by delta exactly when it does not), and the only genuinely new paths are
// the candidate's own messages. prepareAbsorb precomputes, once per
// absorption step, per-segment maxima over the member messages; each
// (candidate, position) trial is then evaluated in O(deg(c)) instead of
// O(n + m).
//
// The incremental value is mathematically exact but can differ from the
// full rescan in the last floating-point bits (the prefix sums associate
// differently). To keep the selected absorptions bit-identical to the
// paper algorithm — the golden Table I tests pin its exact output — the
// incremental value is used only to prune: trials whose incremental value
// exceeds the current bound by more than absorbEps are skipped, and every
// surviving trial is re-evaluated with the exact rescan before it can win.
const absorbEps = 1e-9

// arc is a message by its endpoints.
type arc struct{ src, dst netlist.NodeID }

// graph is the application's communication structure indexed by the dense
// node IDs Validate guarantees. It is built once per SynthesizeContext and
// read by every probe.
type graph struct {
	app     *netlist.Application
	adj     [][]netlist.NodeID // sorted partners in either direction
	out, in [][]netlist.NodeID // destinations / sources of each node's messages
	active  []netlist.NodeID   // nodes with traffic, ascending
}

func newGraph(app *netlist.Application) *graph {
	n := app.N()
	g := &graph{app: app, adj: make([][]netlist.NodeID, n),
		out: make([][]netlist.NodeID, n), in: make([][]netlist.NodeID, n)}
	for _, m := range app.Messages {
		g.out[m.Src] = append(g.out[m.Src], m.Dst)
		g.in[m.Dst] = append(g.in[m.Dst], m.Src)
	}
	for v := range g.adj {
		nb := slices.Concat(g.out[v], g.in[v])
		slices.Sort(nb)
		if g.adj[v] = slices.Compact(nb); len(nb) > 0 {
			g.active = append(g.active, netlist.NodeID(v))
		}
	}
	return g
}

// arena is the L_max search's scratch: the dense node sets and the buffers
// of the absorption search, reused by every ring each probe grows. The
// probes run one after another in the search's one arena.
//
// pos and prefix index the ring being grown (see index); a node is on that
// ring iff onRing holds, so pos never needs clearing. avail marks the nodes
// still free at the current level (or, while an inter ring grows, not yet
// on it) and cand the absorption candidates of the ring being grown; both
// are all false between rings.
type arena struct {
	*graph
	pos, tpos       []int
	prefix, tprefix []float64
	avail, cand     []bool
	msgs            []arc // messages among the members of the ring being grown
	cArcs           []arc // the current candidate's messages with the members
	trial           []netlist.NodeID
	// Per segment j (between order[j] and order[j+1]):
	//   coverFwd[j]: max forward length over messages whose arc covers j
	//                (these grow by delta when inserting into j);
	//   freeFwd[j]:  max forward length over messages missing j (unchanged);
	//   coverRev[j]: max reverse length over messages missing j (grow by
	//                delta in the reversed traversal);
	//   freeRev[j]:  max reverse length over messages covering j.
	// Cover maxima start at -Inf (empty max must not contribute after
	// +delta); free maxima start at 0 to match ringOrderLongest's zero
	// floor over an empty message set.
	coverFwd, freeFwd []float64
	coverRev, freeRev []float64
}

func newArena(g *graph) *arena {
	n := g.app.N()
	return &arena{graph: g, pos: make([]int, n), tpos: make([]int, n),
		prefix: make([]float64, n+1), tprefix: make([]float64, n+1),
		avail: make([]bool, n), cand: make([]bool, n), trial: make([]netlist.NodeID, 0, n),
		coverFwd: make([]float64, n), freeFwd: make([]float64, n),
		coverRev: make([]float64, n), freeRev: make([]float64, n)}
}

// index records each order node's ring position in pos and the ring's
// prefix sums in prefix[:len(order)+1], associated in ring order.
func index(app *netlist.Application, order []netlist.NodeID, pos []int, prefix []float64) {
	n := len(order)
	prefix[0] = 0
	for i, id := range order {
		pos[id] = i
		prefix[i+1] = prefix[i] + app.Pos(id).Manhattan(app.Pos(order[(i+1)%n]))
	}
}

// onRing reports whether id is on the ring order indexed into pos.
func onRing(order []netlist.NodeID, pos []int, id netlist.NodeID) bool {
	p := pos[id]
	return p >= 0 && p < len(order) && order[p] == id
}

// ringOrderLongest evaluates a node order carrying the given messages: the
// longest directed path length, minimised over the two traversal
// directions, and whether the order should be reversed to achieve it. It
// indexes the order into pos and prefix (room for len(order)+1 sums) in
// O(len + msgs); a message with an endpoint off the ring yields +Inf. This
// is the exact rescan of the absorption search.
func ringOrderLongest(app *netlist.Application, order []netlist.NodeID, pos []int, prefix []float64, msgs ...[]arc) (longest float64, reversed bool) {
	n := len(order)
	index(app, order, pos, prefix)
	perimeter := prefix[n]
	var lf, lr float64
	for _, list := range msgs {
		for _, m := range list {
			if !onRing(order, pos, m.src) || !onRing(order, pos, m.dst) {
				return math.Inf(1), false
			}
			fwd := prefix[pos[m.dst]] - prefix[pos[m.src]]
			if fwd < 0 {
				fwd += perimeter
			}
			if fwd > lf {
				lf = fwd
			}
			if rev := perimeter - fwd; rev > lr {
				lr = rev
			}
		}
	}
	if lr < lf {
		return lr, true
	}
	return lf, false
}

// memberArcs appends c's messages to and from the members of the indexed
// ring order.
func (a *arena) memberArcs(dst []arc, order []netlist.NodeID, c netlist.NodeID) []arc {
	for _, d := range a.out[c] {
		if onRing(order, a.pos, d) {
			dst = append(dst, arc{c, d})
		}
	}
	for _, s := range a.in[c] {
		if onRing(order, a.pos, s) {
			dst = append(dst, arc{s, c})
		}
	}
	return dst
}

// pair starts a ring on v and u, collecting the messages between them.
func (a *arena) pair(v, u netlist.NodeID) (order []netlist.NodeID, longest float64) {
	order = []netlist.NodeID{v}
	a.pos[v] = 0
	a.msgs = a.memberArcs(a.msgs[:0], order, u)
	order = append(order, u)
	longest, _ = ringOrderLongest(a.app, order, a.pos, a.prefix, a.msgs)
	return order, longest
}

// absorb inserts c after ring position at, extending the member messages
// by c's and re-indexing the ring.
func (a *arena) absorb(order []netlist.NodeID, c netlist.NodeID, at int) []netlist.NodeID {
	a.msgs = a.memberArcs(a.msgs, order, c)
	order = slices.Insert(order, at+1, c)
	index(a.app, order, a.pos, a.prefix)
	return order
}

// prepareAbsorb fills the per-segment maxima of the indexed ring order
// (n nodes) over the member messages.
func (a *arena) prepareAbsorb(n int) {
	perim := a.prefix[n]
	for j := 0; j < n; j++ {
		a.coverFwd[j], a.freeFwd[j] = math.Inf(-1), 0
		a.coverRev[j], a.freeRev[j] = math.Inf(-1), 0
	}
	for _, m := range a.msgs {
		si, di := a.pos[m.src], a.pos[m.dst]
		fwd := a.prefix[di] - a.prefix[si]
		if fwd < 0 {
			fwd += perim
		}
		rev := perim - fwd
		span := di - si // the arc covers the span segments from si on
		if span < 0 {
			span += n
		}
		for k, j := 0, si; k < n; k++ {
			if k < span {
				if fwd > a.coverFwd[j] {
					a.coverFwd[j] = fwd
				}
				if rev > a.freeRev[j] {
					a.freeRev[j] = rev
				}
			} else {
				if fwd > a.freeFwd[j] {
					a.freeFwd[j] = fwd
				}
				if rev > a.coverRev[j] {
					a.coverRev[j] = rev
				}
			}
			if j++; j == n {
				j = 0
			}
		}
	}
}

// insertionLongest returns the longest signal path (minimised over the two
// traversal directions) of the ring obtained by inserting candidate c into
// segment pos of the indexed ring order, whose messages with the members
// are in cArcs. Exact up to floating-point association order.
func (a *arena) insertionLongest(order []netlist.NodeID, c netlist.NodeID, pos int) float64 {
	n := len(order)
	perim := a.prefix[n]
	wrap := func(v float64) float64 { // onto [0, perim)
		if v < 0 {
			return v + perim
		}
		return v
	}
	bi := (pos + 1) % n
	cPos := a.app.Pos(c)
	dac := a.app.Pos(order[pos]).Manhattan(cPos)
	dcb := cPos.Manhattan(a.app.Pos(order[bi]))
	delta := dac + dcb - (a.prefix[pos+1] - a.prefix[pos])
	newPerim := perim + delta

	lf := max(a.coverFwd[pos]+delta, a.freeFwd[pos])
	lr := max(a.coverRev[pos]+delta, a.freeRev[pos])
	for _, m := range a.cArcs {
		var f float64
		if m.src == c { // c -> member
			f = dcb + wrap(a.prefix[a.pos[m.dst]]-a.prefix[bi])
		} else { // member -> c
			f = wrap(a.prefix[pos]-a.prefix[a.pos[m.src]]) + dac
		}
		if f > lf {
			lf = f
		}
		if r := newPerim - f; r > lr {
			lr = r
		}
	}
	return min(lf, lr)
}

// bestAbsorption tries to absorb each candidate (ascending ID) at each
// position of the indexed ring order — inserting it after order[at] — and
// returns the valid absorption minimising the longest signal path. Trials
// are screened with the incremental evaluator and only survivors are
// re-scanned exactly, so the selection is bit-identical to evaluating every
// trial with ringOrderLongest.
func (a *arena) bestAbsorption(order []netlist.NodeID, cands []bool, lmax float64) (cand netlist.NodeID, at int, longest float64, ok bool) {
	n := len(order)
	a.prepareAbsorb(n)
	longest = math.Inf(1)
	for ci, isCand := range cands {
		if !isCand {
			continue
		}
		c := netlist.NodeID(ci)
		a.cArcs = a.memberArcs(a.cArcs[:0], order, c)
		for pos := 0; pos < n; pos++ {
			if a.insertionLongest(order, c, pos) > min(lmax, longest)+absorbEps {
				continue
			}
			a.trial = append(append(append(a.trial[:0], order[:pos+1]...), c), order[pos+1:]...)
			l, _ := ringOrderLongest(a.app, a.trial, a.tpos, a.tprefix, a.msgs, a.cArcs)
			if l <= lmax && l < longest {
				longest, cand, at, ok = l, c, pos, true
			}
		}
	}
	return cand, at, longest, ok
}
