package global

import (
	"errors"

	"rdlroute/internal/rgraph"
)

// Topological crossing machinery.
//
// Each guide segment inside a tile is a chord between two points of the tile
// boundary. The boundary is the cyclic sequence
//
//	V0, E0, V1, E1, V2, E2
//
// where Ei is the tile edge joining Vi and V(i+1)%3. Two chords cross if and
// only if their endpoints interleave in this cyclic order. Committed guides
// occupy integer positions inside each edge's net-sequence list; a guide
// being searched occupies a *gap* between two committed positions, so its
// coordinates are always strictly between committed ones and ties cannot
// occur. This realizes the paper's net-sequence lists: maintaining the
// correct order of nets on the boundary of every tile guarantees a
// non-crossing guide topology (§III-A3a).

// Boundary coordinates. A chord endpoint maps to a scalar in the cyclic
// domain [0, 6): corner i sits at 2i, and positions on edge i spread
// strictly inside (2i, 2i+2). Committed items of an edge sequence of length
// m map to (j+1)/(m+1) fractions and insertion gaps to half-offsets between
// them, so a gap coordinate never equals an item coordinate. Storage order
// runs EndA→EndB where Edge.A < Edge.B; the boundary traversal runs
// Verts[i] → Verts[(i+1)%3], so the fraction flips when the edge does not
// run in the boundary's direction (rgraph.TileEdges.SameDir).

// vertexCoord is the coordinate of tile corner ord.
//
//rdl:noalloc
func vertexCoord(ord int8) float64 { return float64(2 * int(ord)) }

// itemCoord is the coordinate of committed position item in the sequence
// (length m) of tile edge edge.
//
//rdl:noalloc
func itemCoord(edge int, sameDir bool, m, item int) float64 {
	var frac float64
	if sameDir {
		frac = float64(item+1) / float64(m+1)
	} else {
		frac = float64(m-item) / float64(m+1)
	}
	return float64(2*edge) + 2*frac
}

// gapCoord is the coordinate of insertion gap gap in the sequence (length
// m) of tile edge edge.
//
//rdl:noalloc
func gapCoord(edge int, sameDir bool, m, gap int) float64 {
	var frac float64
	if sameDir {
		frac = (float64(gap) + 0.5) / float64(m+1)
	} else {
		frac = (float64(m-gap) + 0.5) / float64(m+1)
	}
	return float64(2*edge) + 2*frac
}

// gapCoordAt is the coordinate of insertion gap gap on edge ord of tile ti,
// against the edge's current sequence.
//
//rdl:noalloc
func (r *Router) gapCoordAt(ti int32, ord int8, gap int) float64 {
	te := &r.G.TileEdges[ti]
	return gapCoord(int(ord), te.SameDir[ord], len(r.seqs[te.Nodes[ord]]), gap)
}

// inOpenArc reports whether x lies strictly inside the cyclic arc from a to
// b traversed in increasing coordinate direction (domain [0, 6)).
func inOpenArc(x, a, b float64) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b
}

// chordsCross reports whether chords (a1, a2) and (b1, b2) interleave.
// Chords sharing an endpoint (exactly equal coordinates, which only arise
// from consecutive hops of one guide meeting at a node) never properly
// cross.
func chordsCross(a1, a2, b1, b2 float64) bool {
	if a1 == b1 || a1 == b2 || a2 == b1 || a2 == b2 {
		return false
	}
	in1 := inOpenArc(b1, a1, a2)
	in2 := inOpenArc(b2, a1, a2)
	return in1 != in2
}

// passage is one committed guide chord through a tile.
type passage struct {
	net int
	// Edge endpoints are stored WITHOUT a position: the net's current
	// index in the edge sequence is looked up at query time (resolve),
	// because later insertions shift it.
	e1, e2 passageEnd
}

type passageEnd struct {
	vertex int // corner ordinal or -1
	edge   int // edge ordinal or -1
}

// resolve returns the coordinate of a stored passage end of net in tile
// ti: the corner's coordinate, or the net's current position in the edge
// sequence. It reports false when the net is missing from that sequence,
// which CheckInvariants rules out for every committed passage.
//
//rdl:noalloc
func (r *Router) resolve(ti int32, pe passageEnd, net int) (float64, bool) {
	if pe.vertex >= 0 {
		return vertexCoord(int8(pe.vertex)), true
	}
	te := &r.G.TileEdges[ti]
	seq := r.seqs[te.Nodes[pe.edge]]
	for j, n := range seq {
		if n == net {
			return itemCoord(pe.edge, te.SameDir[pe.edge], len(seq), j), true
		}
	}
	return 0, false
}

// tileKey identifies a tile globally.
type tileKey struct{ layer, tri int }

// chordCoords is the resolved coordinate pair of one committed passage.
type chordCoords struct{ c1, c2 float64 }

// errStalePassage reports a committed passage whose net is missing from an
// edge sequence it ends on. commit and ripUp keep passages and sequences in
// step, and CheckInvariants proves it, so reaching it is a router bug.
var errStalePassage = errors.New("global: committed passage end missing from its edge sequence")

// tileChords returns the committed chords of tile ti that belong to nets
// electrically different from the searching net (same-group passages are
// the same net and may cross freely), resolved into boundary coordinates.
// The passages and sequence lists are frozen while a search runs, so each
// tile is resolved on its first visit and the scratch returns the cached
// span on every later one.
//
//rdl:noalloc
func (r *Router) tileChords(sc *searchScratch, ti int32) []chordCoords {
	sp := &sc.chordSpan[ti]
	if sp.gen != sc.gen {
		off := len(sc.chords)
		for _, p := range r.passages[ti] {
			if r.G.Design.SameGroup(p.net, sc.net) {
				continue
			}
			c1, ok1 := r.resolve(ti, p.e1, p.net)
			c2, ok2 := r.resolve(ti, p.e2, p.net)
			if !ok1 || !ok2 {
				panic(errStalePassage)
			}
			sc.chords = append(sc.chords, chordCoords{c1, c2})
		}
		*sp = chordSpan{gen: sc.gen, off: int32(off), n: int32(len(sc.chords) - off)}
	}
	return sc.chords[sp.off : sp.off+sp.n]
}

// chordAllowedCoords reports whether the query chord (q1, q2) crosses none
// of the resolved chords.
//
//rdl:noalloc
func chordAllowedCoords(q1, q2 float64, pcs []chordCoords) bool {
	for _, pc := range pcs {
		if chordsCross(q1, q2, pc.c1, pc.c2) {
			return false
		}
	}
	return true
}

// vertexOrdinal returns the ordinal (0..2) of the mesh vertex v within the
// tile, or -1.
func vertexOrdinal(tile *rgraph.Tile, v int) int {
	for i, tv := range tile.Verts {
		if tv == v {
			return i
		}
	}
	return -1
}

// edgeOrdinal returns the ordinal (0..2) of the edge node within the tile,
// or -1.
func edgeOrdinal(tile *rgraph.Tile, en rgraph.NodeID) int {
	for i, te := range tile.EdgeNodes {
		if te == en {
			return i
		}
	}
	return -1
}
