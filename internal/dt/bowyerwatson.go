package dt

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"rdlroute/internal/geom"
)

// wtri is a working triangle during incremental construction.
type wtri struct {
	v     [3]int32
	n     [3]int32 // neighbour across edge opposite v[i]; -1 = none
	alive bool
}

type bowyerWatson struct {
	pts      []geom.Point // deduped input points + 3 super vertices at the end
	inputIdx []int        // input index -> vertex index
	nReal    int          // number of real (non-super) vertices
	tris     []wtri
	lastTri  int32 // walk hint

	// Scratch reused across insertions. badGen[t] == gen marks triangle t
	// as part of the current cavity; bumping gen clears every mark at once.
	badGen   []uint32
	gen      uint32
	cavity   []int32
	stack    []int32
	boundary []boundaryEdge
	// startAt[x] / endAt[x] hold the new fan triangle whose boundary edge
	// starts / ends at vertex x. Entries below the current insertion's
	// first new triangle are stale from earlier insertions.
	startAt, endAt []int32
}

func newBowyerWatson(points []geom.Point) *bowyerWatson {
	bw := &bowyerWatson{}
	first := firstEqual(points)
	bw.inputIdx = make([]int, len(points))
	for i, p := range points {
		if f := int(first[i]); f != i {
			bw.inputIdx[i] = bw.inputIdx[f]
			continue
		}
		bw.inputIdx[i] = len(bw.pts)
		bw.pts = append(bw.pts, p)
	}
	bw.nReal = len(bw.pts)

	// Append an enclosing super-triangle far outside the data.
	var r geom.Rect
	if bw.nReal > 0 {
		r = geom.BoundingRect(bw.pts)
	}
	size := math.Max(r.W(), r.H())
	if size <= 0 {
		size = 1
	}
	c := r.Center()
	m := 64 * size
	bw.pts = append(bw.pts,
		geom.Pt(c.X-2*m, c.Y-m),
		geom.Pt(c.X+2*m, c.Y-m),
		geom.Pt(c.X, c.Y+2*m),
	)
	s0, s1, s2 := int32(bw.nReal), int32(bw.nReal+1), int32(bw.nReal+2)
	bw.tris = append(bw.tris, wtri{v: [3]int32{s0, s1, s2}, n: [3]int32{-1, -1, -1}, alive: true})
	bw.badGen = append(bw.badGen, 0)
	// pts[] for super triangle chosen CCW already: (-2m,-m),(2m,-m),(0,2m).
	bw.startAt = make([]int32, len(bw.pts))
	bw.endAt = make([]int32, len(bw.pts))
	return bw
}

// firstEqual returns, for each input point, the lowest input index holding
// an equal point (its own index when it is the first). Equal points are
// found by sorting, not hashing.
func firstEqual(points []geom.Point) []int32 {
	order := make([]int32, len(points))
	for i := range order {
		order[i] = int32(i)
	}
	cmpPt := func(a, b geom.Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	}
	slices.SortFunc(order, func(i, j int32) int {
		if c := cmpPt(points[i], points[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	first := make([]int32, len(points))
	for k, i := range order {
		if k > 0 && cmpPt(points[order[k-1]], points[i]) == 0 {
			first[i] = first[order[k-1]]
		} else {
			first[i] = i
		}
	}
	return first
}

// errDegenerate signals an insertion the algorithm could not complete.
var errDegenerate = errors.New("dt: degenerate configuration during insertion")

func (bw *bowyerWatson) run() error {
	for v := 0; v < bw.nReal; v++ {
		if err := bw.insert(int32(v)); err != nil {
			return err
		}
	}
	return nil
}

// locate walks from the hint triangle toward p and returns the index of an
// alive triangle containing p.
func (bw *bowyerWatson) locate(p geom.Point) int32 {
	t := bw.lastTri
	if t < 0 || int(t) >= len(bw.tris) || !bw.tris[t].alive {
		t = -1
		for i := len(bw.tris) - 1; i >= 0; i-- {
			if bw.tris[i].alive {
				t = int32(i)
				break
			}
		}
		if t == -1 {
			return -1
		}
	}
	maxSteps := 4 * (len(bw.tris) + 16)
	for step := 0; step < maxSteps; step++ {
		tr := &bw.tris[t]
		moved := false
		for i := 0; i < 3; i++ {
			a := bw.pts[tr.v[(i+1)%3]]
			b := bw.pts[tr.v[(i+2)%3]]
			if geom.Orient(a, b, p) == geom.Clockwise {
				nb := tr.n[i]
				if nb == -1 {
					// p outside the hull across this edge: cannot happen
					// inside the super-triangle; fall through to scan.
					moved = false
					break
				}
				t = nb
				moved = true
				break
			}
		}
		if !moved {
			return t
		}
	}
	// Walk failed (cycling on degeneracies): brute-force scan.
	for i, tr := range bw.tris {
		if !tr.alive {
			continue
		}
		if geom.PointInTriangle(p, bw.pts[tr.v[0]], bw.pts[tr.v[1]], bw.pts[tr.v[2]]) {
			return int32(i)
		}
	}
	return -1
}

type boundaryEdge struct {
	a, b    int32 // directed per the dead triangle's CCW winding
	outside int32 // triangle index across the edge, or -1
}

// markBad adds triangle t to the current cavity.
func (bw *bowyerWatson) markBad(t int32) {
	bw.badGen[t] = bw.gen
	bw.cavity = append(bw.cavity, t)
}

func (bw *bowyerWatson) isBad(t int32) bool { return bw.badGen[t] == bw.gen }

func (bw *bowyerWatson) insert(v int32) error {
	p := bw.pts[v]
	seed := bw.locate(p)
	if seed == -1 {
		return errDegenerate
	}

	// Grow the cavity: connected triangles whose circumcircle contains p.
	bw.gen++ // one per insertion: vertex indices are int32, so it never wraps
	bw.cavity = bw.cavity[:0]
	bw.markBad(seed)
	bw.stack = append(bw.stack[:0], seed)
	// If p lies on an edge of the seed triangle, the neighbour across that
	// edge must join the cavity even when the tolerant in-circle predicate
	// says "on the boundary, not inside".
	st := bw.tris[seed]
	for i := 0; i < 3; i++ {
		a := bw.pts[st.v[(i+1)%3]]
		b := bw.pts[st.v[(i+2)%3]]
		if geom.Orient(a, b, p) == geom.Collinear && st.n[i] != -1 && !bw.isBad(st.n[i]) {
			bw.markBad(st.n[i])
			bw.stack = append(bw.stack, st.n[i])
		}
	}
	for len(bw.stack) > 0 {
		t := bw.stack[len(bw.stack)-1]
		bw.stack = bw.stack[:len(bw.stack)-1]
		tr := bw.tris[t]
		for i := 0; i < 3; i++ {
			nb := tr.n[i]
			if nb == -1 || bw.isBad(nb) {
				continue
			}
			nt := bw.tris[nb]
			if geom.InCircle(bw.pts[nt.v[0]], bw.pts[nt.v[1]], bw.pts[nt.v[2]], p) {
				bw.markBad(nb)
				bw.stack = append(bw.stack, nb)
			}
		}
	}

	// Collect boundary edges, forcing neighbours into the cavity when p is
	// exactly collinear with a boundary edge (which would otherwise create a
	// zero-area triangle). The cavity is walked in sorted index order so the
	// resulting triangle numbering — and with it every downstream node ID —
	// is deterministic run to run.
	boundary := bw.boundary[:0]
	for guard := 0; guard < len(bw.tris)+8; guard++ {
		slices.Sort(bw.cavity)
		boundary = boundary[:0]
		grew := false
		for _, t := range bw.cavity {
			tr := bw.tris[t]
			for i := 0; i < 3; i++ {
				nb := tr.n[i]
				if nb != -1 && bw.isBad(nb) {
					continue
				}
				a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
				if geom.Orient(bw.pts[a], bw.pts[b], p) == geom.Collinear {
					if nb == -1 {
						return errDegenerate
					}
					bw.markBad(nb)
					grew = true
					break
				}
				boundary = append(boundary, boundaryEdge{a: a, b: b, outside: nb})
			}
			if grew {
				break
			}
		}
		if !grew {
			break
		}
	}
	bw.boundary = boundary
	if len(boundary) < 3 {
		return errDegenerate
	}

	// Kill cavity triangles.
	for _, t := range bw.cavity {
		bw.tris[t].alive = false
	}

	// Create the fan of new triangles around p and stitch adjacency.
	first := int32(len(bw.tris))
	for _, be := range boundary {
		idx := int32(len(bw.tris))
		// Vertices [p, a, b]: CCW because the dead triangle was CCW and p
		// lies on its interior side of a→b.
		bw.tris = append(bw.tris, wtri{
			v:     [3]int32{v, be.a, be.b},
			n:     [3]int32{be.outside, -1, -1},
			alive: true,
		})
		bw.badGen = append(bw.badGen, 0)
		// Fix the outside triangle's back pointer.
		if be.outside != -1 {
			ot := &bw.tris[be.outside]
			for i := 0; i < 3; i++ {
				if ot.n[i] != -1 && bw.isBad(ot.n[i]) {
					// Check this slot is the shared edge (a,b).
					oa, ob := ot.v[(i+1)%3], ot.v[(i+2)%3]
					if (oa == be.a && ob == be.b) || (oa == be.b && ob == be.a) {
						ot.n[i] = idx
					}
				}
			}
		}
		// A simple cavity boundary leaves and enters each vertex once.
		if bw.startAt[be.a] >= first || bw.endAt[be.b] >= first {
			return errDegenerate
		}
		bw.startAt[be.a] = idx
		bw.endAt[be.b] = idx
	}
	// Link new triangles to each other across the spoke edges (p, x). For
	// triangle [p, a, b]: edge opposite a is (b, p) — shared with the new
	// triangle whose boundary edge starts at b; edge opposite b is (p, a) —
	// shared with the one whose boundary edge ends at a.
	for i := first; i < int32(len(bw.tris)); i++ {
		tr := &bw.tris[i]
		next, prev := bw.startAt[tr.v[2]], bw.endAt[tr.v[1]]
		if next < first || prev < first {
			return errDegenerate // the boundary is not a closed loop
		}
		tr.n[1], tr.n[2] = next, prev
	}
	bw.lastTri = first
	return nil
}

// repairHull fills concave notches on the mesh boundary. A finite
// super-triangle cannot stand in for points at infinity: a near-collinear
// hull sliver whose circumcircle reaches beyond the super vertices
// triangulates against them instead of forming the sliver, and removing the
// super triangles then leaves a notch. The notch region's only vertices are
// on its rim, so ear-filling it restores exactly the hull coverage the true
// Delaunay triangulation has.
func repairHull(m *Mesh) {
	for guard := 0; guard < len(m.Points)+8; guard++ {
		loop := boundaryLoop(m)
		if len(loop) < 4 {
			return
		}
		filled := false
		n := len(loop)
		for i := 0; i < n; i++ {
			a, b, c := loop[i], loop[(i+1)%n], loop[(i+2)%n]
			// The loop runs with the interior on its left; a clockwise turn
			// at b is a concave notch.
			if geom.Orient(m.Points[a], m.Points[b], m.Points[c]) != geom.Clockwise {
				continue
			}
			// Ear check: no other boundary vertex inside the candidate.
			ok := true
			for _, v := range loop {
				if v == a || v == b || v == c {
					continue
				}
				if geom.PointInTriangle(m.Points[v], m.Points[a], m.Points[b], m.Points[c]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// (a, c, b) is counterclockwise since (a, b, c) turned clockwise.
			m.Tris = append(m.Tris, Triangle{V: [3]int{a, c, b}})
			filled = true
			break
		}
		if !filled {
			return
		}
		m.rebuildIndexes()
	}
}

// boundaryLoop returns the mesh boundary as an ordered vertex cycle with the
// interior on its left, or nil when the boundary is not a single simple
// loop.
func boundaryLoop(m *Mesh) []int {
	next := make([]int32, len(m.Points)) // boundary successor + 1; 0 = none
	edges := 0
	start := -1
	for _, t := range m.Tris {
		for i := 0; i < 3; i++ {
			if t.N[i] != -1 {
				continue
			}
			from := t.V[(i+1)%3]
			to := t.V[(i+2)%3]
			if next[from] != 0 {
				return nil // non-manifold boundary; leave untouched
			}
			next[from] = int32(to) + 1
			edges++
			start = from
		}
	}
	if start == -1 {
		return nil
	}
	loop := []int{start}
	for v := int(next[start]) - 1; v != start; v = int(next[v]) - 1 {
		if v < 0 {
			return nil // broken cycle
		}
		loop = append(loop, v)
		if len(loop) > edges {
			return nil // broken cycle
		}
	}
	if len(loop) != edges {
		return nil // multiple loops
	}
	return loop
}

// rebuildIndexes recomputes neighbour links and the incidence indexes from
// the triangle vertex lists.
func (m *Mesh) rebuildIndexes() {
	m.index()
	for ti := range m.Tris {
		t := &m.Tris[ti]
		for i := 0; i < 3; i++ {
			// The edge opposite V[i] is slot (i+1)%3: V[i+1]–V[i+2].
			ts := m.edgeTris[m.triEdge[ti][(i+1)%3]]
			switch {
			case ts[0] == ti:
				t.N[i] = ts[1]
			case ts[1] == ti:
				t.N[i] = ts[0]
			default:
				t.N[i] = -1
			}
		}
	}
}

// finish strips the super-triangle, compacts the mesh, and builds the
// incidence indexes.
func (bw *bowyerWatson) finish() (*Mesh, error) {
	keep := make([]int32, len(bw.tris)) // old index -> new index or -1
	var count int32
	for i, t := range bw.tris {
		keep[i] = -1
		if !t.alive {
			continue
		}
		touchesSuper := false
		for _, v := range t.v {
			if int(v) >= bw.nReal {
				touchesSuper = true
			}
		}
		if touchesSuper {
			continue
		}
		keep[i] = count
		count++
	}
	if count == 0 {
		return nil, ErrAllCollinear
	}
	m := &Mesh{
		Points:      append([]geom.Point(nil), bw.pts[:bw.nReal]...),
		InputVertex: bw.inputIdx,
		Tris:        make([]Triangle, count),
	}
	for i, t := range bw.tris {
		ni := keep[i]
		if ni == -1 {
			continue
		}
		var out Triangle
		for j := 0; j < 3; j++ {
			out.V[j] = int(t.v[j])
			if t.n[j] == -1 {
				out.N[j] = -1
			} else {
				out.N[j] = int(keep[t.n[j]]) // -1 if neighbour was super/dead
			}
		}
		m.Tris[ni] = out
	}
	m.index()
	repairHull(m)
	return m, nil
}
