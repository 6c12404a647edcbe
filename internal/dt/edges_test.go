package dt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdlroute/internal/geom"
)

// checkEdgeTables compares the mesh's incidence and edge tables against a
// brute-force scan of Tris: Edges() must be the first-seen walk over each
// triangle's sides, EdgeIndex / EdgeTriangles / EdgeTrianglesAt / TriEdge
// must agree with it, and VertexTriangles must list every incident
// triangle in ascending order.
func checkEdgeTables(m *Mesh) error {
	var want []Edge
	seen := make(map[Edge]int)
	for _, t := range m.Tris {
		for i := 0; i < 3; i++ {
			e := MakeEdge(t.V[i], t.V[(i+1)%3])
			if _, ok := seen[e]; !ok {
				seen[e] = len(want)
				want = append(want, e)
			}
		}
	}
	if got := m.Edges(); !slices.Equal(got, want) {
		return fmt.Errorf("Edges() = %v, want first-seen order %v", got, want)
	}
	for k, e := range want {
		// The first two distinct triangles holding e, in index order.
		tris := [2]int{-1, -1}
		for ti := range m.Tris {
			for _, te := range m.TriangleEdges(ti) {
				if te != e {
					continue
				}
				if tris[0] == -1 {
					tris[0] = ti
				} else if tris[0] != ti && tris[1] == -1 {
					tris[1] = ti
				}
			}
		}
		if got, ok := m.EdgeIndex(e); !ok || got != k {
			return fmt.Errorf("EdgeIndex(%v) = %d, %v, want %d", e, got, ok, k)
		}
		if got, ok := m.EdgeTriangles(e); !ok || got != tris {
			return fmt.Errorf("EdgeTriangles(%v) = %v, %v, want %v", e, got, ok, tris)
		}
		if got := m.EdgeTrianglesAt(k); got != tris {
			return fmt.Errorf("EdgeTrianglesAt(%d) = %v, want %v", k, got, tris)
		}
	}
	for ti, t := range m.Tris {
		te := m.TriEdge(ti)
		for i, e := range m.TriangleEdges(ti) {
			if int(te[i]) != seen[e] {
				return fmt.Errorf("TriEdge(%d)[%d] = %d, want %d", ti, i, te[i], seen[e])
			}
		}
		for _, v := range t.V {
			if !slices.Contains(m.VertexTriangles(v), ti) {
				return fmt.Errorf("VertexTriangles(%d) lacks triangle %d", v, ti)
			}
		}
	}
	for v := range m.Points {
		inc := m.VertexTriangles(v)
		if !slices.IsSorted(inc) {
			return fmt.Errorf("VertexTriangles(%d) = %v not ascending", v, inc)
		}
		for _, ti := range inc {
			if !slices.Contains(m.Tris[ti].V[:], v) {
				return fmt.Errorf("VertexTriangles(%d) lists triangle %d without it", v, ti)
			}
		}
	}
	// Edges the mesh does not have are reported absent.
	if n := len(m.Points); n > 0 {
		for _, e := range []Edge{{A: -1, B: 0}, {A: 0, B: n}, {A: n - 1, B: 0}} {
			if _, ok := m.EdgeIndex(e); ok {
				return fmt.Errorf("EdgeIndex(%v) reported present", e)
			}
		}
	}
	return nil
}

func TestEdgeTablesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var random []geom.Point
	for i := 0; i < 300; i++ {
		random = append(random, geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
	}
	var lattice []geom.Point
	for x := 0; x < 12; x++ {
		for y := 0; y < 9; y++ {
			lattice = append(lattice, geom.Pt(float64(x)*40, float64(y)*40))
		}
	}
	for _, c := range []struct {
		name string
		pts  []geom.Point
	}{{"random", random}, {"lattice", lattice}} {
		m, err := Triangulate(c.pts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := checkEdgeTables(m); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestEdgeTablesAfterHullRepair cuts a hull triangle out of a mesh, leaving
// a concave notch, and checks that repairHull's ear fill rebuilds tables
// that still agree with a brute-force scan.
func TestEdgeTablesAfterHullRepair(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), geom.Pt(5, 5),
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	bottom := MakeEdge(0, 1)
	ts, ok := m.EdgeTriangles(bottom)
	if !ok {
		t.Fatal("bottom hull edge missing")
	}
	m.Tris = slices.Delete(m.Tris, ts[0], ts[0]+1)
	m.rebuildIndexes()
	if _, ok := m.EdgeIndex(bottom); ok {
		t.Fatal("cut did not remove the bottom edge")
	}
	repairHull(m)
	if len(m.Tris) != 4 {
		t.Fatalf("repair left %d triangles, want 4", len(m.Tris))
	}
	if err := m.CheckTopology(); err != nil {
		t.Fatal(err)
	}
	if err := checkEdgeTables(m); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.EdgeTriangles(bottom); !ok || got[0] != 3 || got[1] != -1 {
		t.Errorf("refilled bottom edge triangles = %v, %v, want [3 -1]", got, ok)
	}
}

// fuzzPoints decodes fuzz input into a point set on an integer lattice:
// the first byte picks the lattice spacing, then each byte pair is one
// point's signed coordinates. Small lattices make duplicate, collinear and
// cocircular points common — the configurations the tolerant predicates
// must resolve. At most 64 points keep the O(T·V) Delaunay check cheap.
func fuzzPoints(data []byte) []geom.Point {
	if len(data) == 0 {
		return nil
	}
	spacing := [4]float64{1, 0.5, 7.3, 125}[data[0]&3]
	data = data[1:]
	var pts []geom.Point
	for i := 0; i+1 < len(data) && len(pts) < 64; i += 2 {
		pts = append(pts, geom.Pt(float64(int8(data[i]))*spacing, float64(int8(data[i+1]))*spacing))
	}
	return pts
}

// FuzzTriangulate feeds arbitrary lattice point sets to Triangulate. It
// must never panic: it either returns an error or a mesh whose topology,
// Delaunay property, vertex mapping and edge tables all hold.
func FuzzTriangulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		m, err := Triangulate(pts)
		if err != nil {
			return
		}
		if len(m.InputVertex) != len(pts) {
			t.Fatalf("InputVertex has %d entries for %d points", len(m.InputVertex), len(pts))
		}
		for i, vi := range m.InputVertex {
			if vi < 0 || vi >= len(m.Points) || m.Points[vi] != pts[i] {
				t.Fatalf("input %d maps to vertex %d", i, vi)
			}
		}
		if err := m.CheckTopology(); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckDelaunay(); err != nil {
			t.Fatal(err)
		}
		if err := checkEdgeTables(m); err != nil {
			t.Fatal(err)
		}
	})
}
