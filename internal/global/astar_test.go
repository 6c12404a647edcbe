package global

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/pq"
	"rdlroute/internal/rgraph"
)

// searchSequence routes a dense case and hashes the per-search sequence of
// (net, found, expansions, heap pushes) over the round loop and diagonal
// refinement. It also returns the guide fingerprint. A non-nil after runs
// after every search with the router and the search's 1-based index.
func searchSequence(t *testing.T, name string, after func(r *Router, search int)) (string, string) {
	t.Helper()
	r := buildRouter(t, name, rgraph.Options{}, Options{})
	h := sha256.New()
	searches := 0
	r.searchDone = func(net int, ok bool, expansions, heapPushes int) {
		searches++
		fmt.Fprintf(h, "%d %t %d %d\n", net, ok, expansions, heapPushes)
		if after != nil {
			after(r, searches)
		}
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if searches == 0 {
		t.Fatal("no search reported")
	}
	return hex.EncodeToString(h.Sum(nil)), fingerprintGlobal(res)
}

// TestSearchSequenceFingerprint pins the exact work of every crossing-aware
// search on dense1–5. Equal guides alone could hide a changed tie order
// among equal-f states that happens to end in the same paths; the
// expansion and heap-push counts of each search expose it.
func TestSearchSequenceFingerprint(t *testing.T) {
	want := map[string]string{
		"dense1": "5a648de3b2180a5c5db3759a664e1dd153c75ede5ccb3950de3230925942d829",
		"dense2": "cde97dc4d50479fd918325c349b4387e62637cc2a1b5505f9410a8b0ff0d17bf",
		"dense3": "0b91a35dc8dafa4df1590629db90c5c63c4223293b689a0daba2f099fb5ab574",
		"dense4": "8fc8bdc9cd5cc991c890be48c67151db72b7a0bd9220fb4b067540ba4acccdc1",
		"dense5": "a095acdc1561d112c36fd4c1331b9f4e1d682fd304bfeb29b826d28f5e834597",
	}
	for _, name := range design.DenseNames() {
		t.Run(name, func(t *testing.T) {
			got, _ := searchSequence(t, name, nil)
			if got != want[name] {
				t.Errorf("search sequence = %s, want %s", got, want[name])
			}
		})
	}
}

// poisonAndWrap stamps every generation-stamped entry of the scratch with
// generation 1 — the value a wrapped counter restarts at — holding values
// that would change any search reading them, and moves the counter to the
// brink of wrapping.
func poisonAndWrap(sc *searchScratch) {
	for i := range sc.best {
		sc.best[i].set(-1, 1) // rejects every push
	}
	for i := range sc.heur {
		sc.heur[i] = heurSlot{h: float64(i % 7), gen: 1} // reorders the open list
	}
	for i := range sc.chordSpan {
		sc.chordSpan[i] = chordSpan{gen: 1} // hides every committed chord
	}
	// Stale blocked-set stamps drop resources from the failure record.
	for _, stamps := range [][]uint32{sc.blkNodeStamp, sc.blkLinkStamp, sc.blkTileStamp} {
		for i := range stamps {
			stamps[i] = 1
		}
	}
	sc.gen = math.MaxUint32
}

// TestGenerationWrap drives the generation-wrap path of both search
// scratches. begin must clear every stamped array when the counter wraps,
// and a run whose counter wraps mid-round, over poisoned stamps, must repeat
// the unwrapped run's searches and guides exactly.
func TestGenerationWrap(t *testing.T) {
	r := buildRouter(t, "dense2", rgraph.Options{}, Options{})
	sc := newSearchScratch(r.G)
	poisonAndWrap(sc)
	sc.begin(r.G.Design.Nets[0], 1, r.G.Nodes[0].Pos)
	if sc.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", sc.gen)
	}
	for i := range sc.best {
		if sc.best[i].gen != 0 {
			t.Fatalf("scoreboard slot %d keeps stamp %d after wrap", i, sc.best[i].gen)
		}
	}
	for i := range sc.heur {
		if sc.heur[i].gen != 0 {
			t.Fatalf("heuristic memo of node %d keeps stamp %d after wrap", i, sc.heur[i].gen)
		}
	}
	for i := range sc.chordSpan {
		if sc.chordSpan[i].gen != 0 {
			t.Fatalf("chord cache of tile %d keeps stamp %d after wrap", i, sc.chordSpan[i].gen)
		}
	}
	for _, stamps := range [][]uint32{sc.blkNodeStamp, sc.blkLinkStamp, sc.blkTileStamp} {
		for i, st := range stamps {
			if st != 0 {
				t.Fatalf("blocked-set stamp %d keeps %d after wrap", i, st)
			}
		}
	}

	ps := newPlainScratch(r.G)
	for i := range ps.best {
		ps.best[i].set(-1, 1)
	}
	ps.gen = math.MaxUint32
	ps.begin()
	if ps.gen != 1 {
		t.Fatalf("standalone generation after wrap = %d, want 1", ps.gen)
	}
	for i := range ps.best {
		if ps.best[i].gen != 0 {
			t.Fatalf("standalone scoreboard slot %d keeps stamp %d after wrap", i, ps.best[i].gen)
		}
	}

	wantSeq, wantGuides := searchSequence(t, "dense2", nil)
	const wrapAfter = 30 // mid-round: committed passages fill the chord cache
	wrapped := false
	gotSeq, gotGuides := searchSequence(t, "dense2", func(r *Router, search int) {
		if search == wrapAfter {
			poisonAndWrap(r.scr)
			wrapped = true
		}
	})
	if !wrapped {
		t.Fatalf("dense2 ran fewer than %d searches", wrapAfter)
	}
	if gotGuides != wantGuides {
		t.Fatalf("guides after a generation wrap differ:\n%s\nwant:\n%s", gotGuides, wantGuides)
	}
	if gotSeq != wantSeq {
		t.Fatalf("search sequence after a generation wrap = %s, want %s", gotSeq, wantSeq)
	}
}

// TestOpenListMatchesPQ drives the open list and a pq.Heap ordered on f
// through the same interleaved pushes and pops, with f values drawn from a
// small set so ties abound: the popped entries, index included, must agree
// at every step, since the pop order among equal f decides the search.
func TestOpenListMatchesPQ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ol openList
	ref := pq.New(func(a, b heapItem) bool { return a.f < b.f })
	for step := 0; step < 20000; step++ {
		if ol.len() != ref.Len() {
			t.Fatalf("step %d: len %d, want %d", step, ol.len(), ref.Len())
		}
		if ol.len() > 0 && rng.Intn(5) < 2 {
			if got, want := ol.pop(), ref.Pop(); got != want {
				t.Fatalf("step %d: pop %+v, want %+v", step, got, want)
			}
			continue
		}
		x := heapItem{f: float64(rng.Intn(8)), idx: int32(step)}
		ol.push(x)
		ref.Push(x)
	}
	for ol.len() > 0 {
		if got, want := ol.pop(), ref.Pop(); got != want {
			t.Fatalf("drain: pop %+v, want %+v", got, want)
		}
	}
}
