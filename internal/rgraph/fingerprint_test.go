package rgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/viaplan"
)

// fingerprint hashes everything downstream stages read from a graph: node,
// link and adjacency arrays, tiles, the vertex-to-node table and each
// layer's triangle list and Edges() order. %v prints floats in their
// shortest round-trip form, so equal hashes mean bit-equal geometry.
func fingerprint(g *Graph) string {
	h := sha256.New()
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "n%+v\n", n)
	}
	for _, l := range g.Links {
		fmt.Fprintf(h, "l%+v\n", l)
	}
	// Adjacency lines keep the {Link To} form of the per-node slices the
	// pins were taken from, so the hop's other fields do not enter the hash.
	for id := range g.Nodes {
		fmt.Fprintf(h, "a%d[", id)
		for i, adj := range g.Adj(NodeID(id)) {
			if i > 0 {
				fmt.Fprint(h, " ")
			}
			fmt.Fprintf(h, "{%d %d}", adj.Link, adj.To)
		}
		fmt.Fprint(h, "]\n")
	}
	for _, lg := range g.Layers {
		fmt.Fprintf(h, "L%d\n", lg.Index)
		for _, t := range lg.Tiles {
			fmt.Fprintf(h, "t%+v\n", t)
		}
		fmt.Fprintf(h, "v%v\n", lg.VertNode)
		for _, t := range lg.Mesh.Tris {
			fmt.Fprintf(h, "T%v\n", t)
		}
		fmt.Fprintf(h, "E%v\n", lg.Mesh.Edges())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// obstacleDesign is a three-layer random design with a keep-out on the
// middle layer, so blocked tiles and skipped access links reach the
// fingerprint.
func obstacleDesign(t *testing.T) *design.Design {
	t.Helper()
	d, err := design.GenerateRandom(design.RandomSpec{Seed: 5, Chips: 3, NetsPerChannel: 10, WireLayers: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := d.Outline.Center()
	if err := d.AddObstacle(design.Obstacle{
		Name:   "keepout",
		Rect:   geom.R(c.X-150, c.Y-150, c.X+150, c.Y+150),
		Layers: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

// keepoutBlocksEdges reports whether some edge node of the obstacle's layer
// with its midpoint inside the keep-out carries zero capacity.
func keepoutBlocksEdges(g *Graph, o design.Obstacle) bool {
	for _, n := range g.Nodes {
		if n.Kind == EdgeNode && o.BlocksLayer(n.Layer) && n.Cap == 0 && o.Rect.Contains(n.Pos) {
			return true
		}
	}
	return false
}

// TestGraphFingerprint pins the routing graph byte for byte. The hashes were
// taken from the map-based construction this package used before the flat
// slice-indexed rewrite; any change to node, link or triangle numbering
// breaks them.
func TestGraphFingerprint(t *testing.T) {
	want := map[string]string{
		"dense1":   "46325269c8d7bf66ada5d50f23c1b0e87fff5c7a705f80dfd58e34c2f934d99d",
		"dense2":   "2c3b7c4f2a8d94909b57ca26d5ff1cd1fa58ea3b4934e28c8de3ff1da0e33daf",
		"dense3":   "40f444ec974f8f0f24317c7bf438a97b66cfc6123ce2cc58a8ad88c0a0a0d668",
		"dense4":   "d30e6fd99af0b79496bf5c82267518a915621cc6539389dafc4dbbf48260ed4f",
		"dense5":   "03f2f00022e40bc5c3f6094b4b4225c2e5637db3f374732131cd696beaefec64",
		"obstacle": "a151ac529fa4e58198cf5d40ad683492e7f35bbdc69851c75241bdfe8fe77f1b",
	}
	for _, name := range []string{"dense1", "dense2", "dense3", "dense4", "dense5", "obstacle"} {
		t.Run(name, func(t *testing.T) {
			var d *design.Design
			if name == "obstacle" {
				d = obstacleDesign(t)
			} else {
				var err error
				if d, err = design.GenerateDense(name); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := viaplan.Build(d, viaplan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(d, plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if name == "obstacle" && !keepoutBlocksEdges(g, d.Obstacles[0]) {
				t.Fatal("keep-out blocks no edge node: the fixture no longer exercises blocking")
			}
			if got := fingerprint(g); got != want[name] {
				t.Errorf("fingerprint = %s, want %s", got, want[name])
			}
		})
	}
}
