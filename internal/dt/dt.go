// Package dt implements Delaunay triangulation of a 2-D point set via the
// incremental Bowyer–Watson algorithm with walking point location.
//
// This package stands in for the C++ CDT library the paper uses: the router
// triangulates the candidate vias of each wire layer (plus uniformly
// inserted boundary dummy points) and consumes the resulting triangular
// tiles, their adjacency, and their edges.
//
// The triangulation is robust enough for EDA workloads: regular pad and via
// lattices produce many exactly cocircular quadruples, which the tolerant
// in-circle predicate in package geom resolves deterministically.
package dt

import (
	"errors"
	"fmt"
	"math"

	"rdlroute/internal/geom"
)

// ErrTooFewPoints is returned when fewer than three distinct points are
// supplied, so no triangle exists.
var ErrTooFewPoints = errors.New("dt: need at least 3 distinct points")

// ErrAllCollinear is returned when every input point lies on one line, so no
// triangulation with positive-area triangles exists.
var ErrAllCollinear = errors.New("dt: all points are collinear")

// Triangle is one triangular tile of the mesh. This is the κ(i,j,k) tile of
// the paper.
type Triangle struct {
	// V holds the three vertex indices in counterclockwise order.
	V [3]int
	// N holds the neighbour triangle index across the edge opposite V[i]
	// (that is, the edge V[(i+1)%3]–V[(i+2)%3]), or -1 on the hull
	// boundary.
	N [3]int
}

// Edge is an undirected mesh edge between two vertex indices with A < B.
type Edge struct {
	A, B int
}

// MakeEdge normalizes an undirected edge so A < B.
func MakeEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// ErrNonFinite is returned when an input coordinate is NaN or infinite.
var ErrNonFinite = errors.New("dt: non-finite point coordinate")

// Mesh is a Delaunay triangulation result.
type Mesh struct {
	// Points is the deduplicated vertex set. Indices into it are the vertex
	// indices used everywhere else.
	Points []geom.Point
	// InputVertex maps each input point index to its vertex index (inputs
	// that duplicate an earlier point map to the earlier vertex).
	InputVertex []int
	// Tris holds the triangles of the final mesh.
	Tris []Triangle

	// Vertex incidence in CSR form: the triangles of vertex v are
	// vertTris[vertStart[v]:vertStart[v+1]], in ascending order.
	vertStart []int32
	vertTris  []int
	// Edge k of the mesh, numbered in first-seen order over Tris, with its
	// 1 or 2 incident triangles (-1 pad).
	edges    []Edge
	edgeTris [][2]int
	// triEdge[t][i] is the edge index of triangle t's side V[i]–V[(i+1)%3].
	triEdge [][3]int32
}

// Triangulate computes the Delaunay triangulation of the given points.
// Duplicate points (exactly equal coordinates) are merged.
func Triangulate(points []geom.Point) (*Mesh, error) {
	for _, p := range points {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, ErrNonFinite
		}
	}
	bw := newBowyerWatson(points)
	if len(bw.pts)-3 < 3 { // minus the 3 super-triangle vertices
		return nil, ErrTooFewPoints
	}
	if err := bw.run(); err != nil {
		return nil, err
	}
	return bw.finish()
}

// index builds the vertex incidence and the edge tables from Tris.
func (m *Mesh) index() {
	nv, nt := len(m.Points), len(m.Tris)
	start := make([]int32, nv+1)
	for _, t := range m.Tris {
		for _, v := range t.V {
			start[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		start[v+1] += start[v]
	}
	inc := make([]int, 3*nt)
	for ti, t := range m.Tris {
		for _, v := range t.V {
			inc[start[v]] = ti
			start[v]++
		}
	}
	// The fill advanced each start to the next vertex's; shift back.
	copy(start[1:], start[:nv])
	start[0] = 0
	m.vertStart, m.vertTris = start, inc

	// A planar triangulation has nv + nt - 1 edges (Euler).
	m.edges = make([]Edge, 0, nv+nt)
	m.edgeTris = make([][2]int, 0, nv+nt)
	m.triEdge = make([][3]int32, nt)
	for ti, t := range m.Tris {
		for j := 0; j < 3; j++ {
			e := MakeEdge(t.V[j], t.V[(j+1)%3])
			k := m.findEdge(e, ti, j)
			if k == -1 {
				k = len(m.edges)
				m.edges = append(m.edges, e)
				m.edgeTris = append(m.edgeTris, [2]int{ti, -1})
			} else if cur := &m.edgeTris[k]; cur[0] != ti && cur[1] == -1 {
				cur[1] = ti
			}
			m.triEdge[ti][j] = int32(k)
		}
	}
}

// findEdge returns the index of edge e among the sides already numbered —
// every side of the triangles before ti and sides 0..j-1 of ti — or -1. It
// scans the triangles incident to e.A.
func (m *Mesh) findEdge(e Edge, ti, j int) int {
	for _, tj := range m.VertexTriangles(e.A) {
		if tj > ti {
			break
		}
		sides := 3
		if tj == ti {
			sides = j
		}
		t := &m.Tris[tj]
		for s := 0; s < sides; s++ {
			if MakeEdge(t.V[s], t.V[(s+1)%3]) == e {
				return int(m.triEdge[tj][s])
			}
		}
	}
	return -1
}

// EdgeIndex returns the index of edge e in Edges(), and reports whether the
// edge exists in the mesh.
func (m *Mesh) EdgeIndex(e Edge) (int, bool) {
	if e.A < 0 || e.A > e.B || e.B >= len(m.Points) {
		return -1, false
	}
	k := m.findEdge(e, len(m.Tris), 0)
	return k, k != -1
}

// EdgeTriangles returns the one or two triangle indices incident to the
// given undirected edge, and reports whether the edge exists in the mesh.
// For a hull edge the second index is -1.
func (m *Mesh) EdgeTriangles(e Edge) ([2]int, bool) {
	k, ok := m.EdgeIndex(e)
	if !ok {
		return [2]int{}, false
	}
	return m.edgeTris[k], true
}

// EdgeTrianglesAt returns the one or two triangles incident to edge k of
// Edges(); the second is -1 on the hull.
func (m *Mesh) EdgeTrianglesAt(k int) [2]int { return m.edgeTris[k] }

// Edges returns all undirected edges of the mesh, numbered in the order
// they are first seen walking Tris and each triangle's sides V[i]–V[i+1].
// The slice is the mesh's own edge table: callers must treat it as
// read-only.
func (m *Mesh) Edges() []Edge { return m.edges }

// TriEdge returns the Edges() indices of triangle t's sides, in the order
// of TriangleEdges: side i joins V[i] and V[(i+1)%3].
func (m *Mesh) TriEdge(t int) [3]int32 { return m.triEdge[t] }

// VertexTriangles returns the indices of all triangles incident to vertex v,
// in ascending order. The slice aliases the mesh: callers must not modify
// it.
func (m *Mesh) VertexTriangles(v int) []int {
	if v < 0 || v >= len(m.Points) {
		return nil
	}
	return m.vertTris[m.vertStart[v]:m.vertStart[v+1]:m.vertStart[v+1]]
}

// TriangleEdges returns the three undirected edges of triangle t.
func (m *Mesh) TriangleEdges(t int) [3]Edge {
	tri := m.Tris[t]
	return [3]Edge{
		MakeEdge(tri.V[0], tri.V[1]),
		MakeEdge(tri.V[1], tri.V[2]),
		MakeEdge(tri.V[2], tri.V[0]),
	}
}

// OppositeVertex returns the vertex of triangle t not on edge e, and reports
// whether e is actually an edge of t.
func (m *Mesh) OppositeVertex(t int, e Edge) (int, bool) {
	tri := m.Tris[t]
	for i := 0; i < 3; i++ {
		if tri.V[i] != e.A && tri.V[i] != e.B {
			o := tri.V[(i+1)%3]
			p := tri.V[(i+2)%3]
			if (o == e.A && p == e.B) || (o == e.B && p == e.A) {
				return tri.V[i], true
			}
		}
	}
	return -1, false
}

// FindTriangle returns the index of a triangle containing p (boundary
// inclusive), or -1 when p is outside the hull.
func (m *Mesh) FindTriangle(p geom.Point) int {
	for i, t := range m.Tris {
		if geom.PointInTriangle(p, m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]) {
			return i
		}
	}
	return -1
}

// CheckDelaunay verifies the Delaunay empty-circumcircle property: no mesh
// vertex lies strictly inside any triangle's circumcircle. It returns a
// descriptive error for the first violation found. Intended for tests.
func (m *Mesh) CheckDelaunay() error {
	for ti, t := range m.Tris {
		a, b, c := m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]
		for vi, p := range m.Points {
			if vi == t.V[0] || vi == t.V[1] || vi == t.V[2] {
				continue
			}
			if geom.InCircle(a, b, c, p) {
				return fmt.Errorf("dt: vertex %d inside circumcircle of triangle %d", vi, ti)
			}
		}
	}
	return nil
}

// CheckTopology verifies structural invariants: CCW winding, symmetric
// neighbour links, and consistent edge-triangle incidence. Intended for
// tests.
func (m *Mesh) CheckTopology() error {
	for ti, t := range m.Tris {
		a, b, c := m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]
		if geom.Orient(a, b, c) != geom.CounterClockwise {
			return fmt.Errorf("dt: triangle %d not counterclockwise", ti)
		}
		for i := 0; i < 3; i++ {
			n := t.N[i]
			if n == -1 {
				continue
			}
			if n < 0 || n >= len(m.Tris) {
				return fmt.Errorf("dt: triangle %d neighbour %d out of range", ti, n)
			}
			// The neighbour must point back at us across the shared edge.
			back := false
			for j := 0; j < 3; j++ {
				if m.Tris[n].N[j] == ti {
					back = true
				}
			}
			if !back {
				return fmt.Errorf("dt: triangle %d neighbour %d does not link back", ti, n)
			}
		}
	}
	// Edge incidence, in edge-index order.
	for k, ts := range m.edgeTris {
		for _, ti := range ts {
			if ti == -1 {
				continue
			}
			found := false
			for _, ee := range m.TriangleEdges(ti) {
				if ee == m.edges[k] {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("dt: edge %v lists triangle %d which lacks it", m.edges[k], ti)
			}
		}
	}
	return nil
}
