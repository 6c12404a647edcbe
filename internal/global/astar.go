package global

import (
	"errors"
	"fmt"
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/rgraph"
)

// ErrUnroutable is wrapped by route errors when the crossing-aware A* cannot
// reach the target within capacity and topology constraints.
var ErrUnroutable = errors.New("global: net unroutable")

// searchResult is an uncommitted guide: the node path, links, and the
// sequence insertion gap chosen at every edge node. The gaps slice aliases
// scratch storage and is only valid until the owning scratch's next route
// call; nodes and links are freshly allocated because commit keeps them in
// the Guide.
type searchResult struct {
	net   int
	nodes []rgraph.NodeID
	links []int
	gaps  []int
}

// stateKey identifies a crossing-aware search state. Edge-node states carry
// the insertion gap in the node's net-sequence list (the paper's "record the
// left and right guides next to the processing guide"); via-node states
// carry whether the via was reached through a cross-via link, which
// restricts how it may be left.
type stateKey struct {
	node      rgraph.NodeID
	gap       int16
	viaArrive bool
}

type searchState struct {
	key    stateKey
	g, f   float64
	parent int32 // arena index of predecessor, -1 for start
	link   int32 // link traversed to arrive, -1 for start
}

// heapItem is one open-list entry: the f value is stored inline so the heap
// comparator never chases the arena.
type heapItem struct {
	f   float64
	idx int32
}

// openList is the binary min-heap on f shared by the crossing-aware and the
// standalone searches. Its sift-up and sift-down make exactly the
// comparisons of pq.Heap ordered by a.f < b.f, so the pop order among equal
// f values — and with it every search — is the one the generic heap gave,
// without an indirect comparator call per comparison.
type openList struct {
	data []heapItem
}

// reset empties the list, keeping its backing array.
//
//rdl:noalloc
func (h *openList) reset() { h.data = h.data[:0] }

// len returns the number of open entries.
//
//rdl:noalloc
func (h *openList) len() int { return len(h.data) }

// push adds an entry.
//
//rdl:noalloc
func (h *openList) push(x heapItem) {
	h.data = append(h.data, x)
	d := h.data
	i := len(d) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(d[i].f < d[parent].f) {
			return
		}
		d[i], d[parent] = d[parent], d[i]
		i = parent
	}
}

// pop removes and returns the entry of least f. The list must not be
// empty.
//
//rdl:noalloc
func (h *openList) pop() heapItem {
	d := h.data
	n := len(d) - 1
	top := d[0]
	d[0] = d[n]
	d = d[:n]
	h.data = d
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && d[r].f < d[l].f {
			m = r
		}
		if !(d[m].f < d[i].f) {
			break
		}
		d[i], d[m] = d[m], d[i]
		i = m
	}
	return top
}

// scoreSlot is one scoreboard entry: the best g of a state key in the
// search stamped gen; stale when gen is not the current generation. g is
// kept as its two 32-bit halves so the slot packs into 12 bytes and the
// cost sits beside its stamp.
type scoreSlot struct {
	gLo, gHi uint32
	gen      uint32
}

// g returns the slot's best cost.
//
//rdl:noalloc
func (s *scoreSlot) g() float64 { return math.Float64frombits(uint64(s.gHi)<<32 | uint64(s.gLo)) }

// set records cost g for the search stamped gen.
//
//rdl:noalloc
func (s *scoreSlot) set(g float64, gen uint32) {
	b := math.Float64bits(g)
	s.gLo, s.gHi, s.gen = uint32(b), uint32(b>>32), gen
}

// heurSlot memoises a node's heuristic, its distance to the search target,
// for the search stamped gen.
type heurSlot struct {
	h   float64
	gen uint32
}

// chordSpan locates one tile's resolved foreign chords in the scratch chord
// buffer, for the search stamped gen.
type chordSpan struct {
	gen    uint32
	off, n int32
}

// searchScratch owns every buffer the crossing-aware A* needs, so repeated
// route calls — the rip-up rounds and diagonal-refinement reroutes are many
// thousands of searches on dense designs — allocate nothing beyond the
// result path itself.
//
// The best-cost scoreboard is dense: every reachable state key maps to a
// fixed slot (via nodes get two slots, one per viaArrive flavour; edge nodes
// get one slot per insertion gap, because a sequence of length m needs gaps
// 0..m and m never exceeds maxSeqLen). A generation counter stamps slot
// validity so clearing the scoreboard between searches is one integer
// increment, not an O(slots) wipe. The same generation
// stamps the per-node heuristic memo and the per-tile chord cache: the
// committed passages and sequence lists do not change while a search runs,
// so each tile's foreign chords are resolved once per search.
//
// Beyond the A* buffers the scratch records the search's blocked set —
// nodes, links and tiles where a capacity or crossing check rejected an
// expansion, deduplicated by generation stamps too. On failure the caller
// folds it into the round-level sets that seed incremental rip-up.
type searchScratch struct {
	slotBase []int32 // per node: first scoreboard slot
	best     []scoreSlot
	gen      uint32

	heur      []heurSlot    // per node
	chordSpan []chordSpan   // per dense tile
	chords    []chordCoords // backs the cached chord spans

	arena []searchState
	open  openList

	// seen and seenGen implement reconstruct's node-revisit check without a
	// per-call map.
	seen    []uint32
	seenGen uint32

	// gapsBuf backs searchResult.gaps; the caller consumes the gaps before
	// this scratch's next search overwrites them.
	gapsBuf []int

	// The search in flight: its net, whether the net has a layer limit,
	// the net's per-edge-node capacity units and the heuristic target.
	net          int
	layerLimited bool
	units        int32
	dstPos       geom.Point

	// Per-search work counters, reset by begin; the caller folds them into
	// the router totals.
	expansions int
	heapPushes int

	// Blocked-resource recording (see type comment).
	blkNodeStamp []uint32
	blkLinkStamp []uint32
	blkTileStamp []uint32
	blkNodes     []rgraph.NodeID
	blkLinks     []int
	blkTiles     []int32 // dense tile ordinals (Graph.TileBase)
}

// newSearchScratch sizes the scoreboard, memo and recorder arrays for a
// graph.
func newSearchScratch(g *rgraph.Graph) *searchScratch {
	nTiles := g.TileBase[len(g.Layers)]
	s := &searchScratch{
		slotBase:  make([]int32, len(g.Nodes)+1),
		heur:      make([]heurSlot, len(g.Nodes)),
		chordSpan: make([]chordSpan, nTiles),
		seen:      make([]uint32, len(g.Nodes)),

		blkNodeStamp: make([]uint32, len(g.Nodes)),
		blkLinkStamp: make([]uint32, len(g.Links)),
		blkTileStamp: make([]uint32, nTiles),
	}
	var slots int32
	for id := range g.Nodes {
		s.slotBase[id] = slots
		if n := &g.Nodes[id]; n.Kind == rgraph.EdgeNode {
			// Gaps 0..len(seq), and len(seq) never exceeds maxSeqLen.
			slots += int32(maxSeqLen(g, n)) + 1
		} else {
			slots += 2 // viaArrive false / true
		}
	}
	s.slotBase[len(g.Nodes)] = slots
	s.best = make([]scoreSlot, slots)
	return s
}

// slot maps a state key to its scoreboard slot.
//
//rdl:noalloc
func (s *searchScratch) slot(key stateKey) int32 {
	base := s.slotBase[key.node]
	if key.gap >= 0 {
		return base + int32(key.gap)
	}
	if key.viaArrive {
		return base + 1
	}
	return base
}

// begin readies the scratch for one search of net (units capacity units
// per edge node) toward dstPos: new generation, empty arena, open list,
// chord buffer and blocked set, zeroed work counters.
//
//rdl:noalloc
func (s *searchScratch) begin(net design.Net, units int, dstPos geom.Point) {
	s.gen++
	if s.gen == 0 { // generation counter wrapped: invalidate every stamp
		for i := range s.best {
			s.best[i].gen = 0
		}
		for i := range s.heur {
			s.heur[i].gen = 0
		}
		for i := range s.chordSpan {
			s.chordSpan[i].gen = 0
		}
		clear(s.blkNodeStamp)
		clear(s.blkLinkStamp)
		clear(s.blkTileStamp)
		s.gen = 1
	}
	s.arena = s.arena[:0]
	s.open.reset()
	s.chords = s.chords[:0]
	s.net = net.ID
	s.layerLimited = net.MaxLayers > 0
	s.units = int32(units)
	s.dstPos = dstPos
	s.expansions = 0
	s.heapPushes = 0
	s.blkNodes = s.blkNodes[:0]
	s.blkLinks = s.blkLinks[:0]
	s.blkTiles = s.blkTiles[:0]
}

// heuristic returns node id's distance to the search target, computed once
// per node per search.
//
//rdl:noalloc
func (s *searchScratch) heuristic(g *rgraph.Graph, id rgraph.NodeID) float64 {
	m := &s.heur[id]
	if m.gen != s.gen {
		m.h = g.Nodes[id].Pos.Dist(s.dstPos)
		m.gen = s.gen
	}
	return m.h
}

// blockNode records a node whose capacity rejected an expansion of the
// search in flight (deduplicated per search by stamp).
//
//rdl:noalloc
func (s *searchScratch) blockNode(id rgraph.NodeID) {
	if s.blkNodeStamp[id] != s.gen {
		s.blkNodeStamp[id] = s.gen
		s.blkNodes = append(s.blkNodes, id)
	}
}

// blockLink records a link whose capacity rejected an expansion.
//
//rdl:noalloc
func (s *searchScratch) blockLink(id int32) {
	if s.blkLinkStamp[id] != s.gen {
		s.blkLinkStamp[id] = s.gen
		s.blkLinks = append(s.blkLinks, int(id))
	}
}

// blockTile records a tile, by dense ordinal, where a crossing check
// rejected a chord.
//
//rdl:noalloc
func (s *searchScratch) blockTile(ti int32) {
	if s.blkTileStamp[ti] != s.gen {
		s.blkTileStamp[ti] = s.gen
		s.blkTiles = append(s.blkTiles, ti)
	}
}

// push relaxes a state: admits it when it improves on the scoreboard and
// appends it to the arena and open list.
//
//rdl:noalloc
func (r *Router) push(sc *searchScratch, key stateKey, g float64, parent, link int32) {
	b := &sc.best[sc.slot(key)]
	if b.gen == sc.gen && b.g() <= g {
		return
	}
	b.set(g, sc.gen)
	f := g + sc.heuristic(r.G, key.node)
	sc.arena = append(sc.arena, searchState{key: key, g: g, f: f, parent: parent, link: link})
	sc.open.push(heapItem{f: f, idx: int32(len(sc.arena) - 1)})
	sc.heapPushes++
}

// route runs crossing-aware A* for one net on the given scratch and returns
// an uncommitted guide. It mutates only the scratch; on failure the caller
// folds the scratch's blocked set into the round-level sets
// (noteSearchFailed).
//
//rdl:noalloc
func (r *Router) route(sc *searchScratch, net design.Net) (*searchResult, error) {
	src, dst, err := r.G.NetPins(net)
	if err != nil {
		// Reset the scratch so the caller's counter/blocked-set fold sees
		// an empty search rather than the previous search's leftovers.
		sc.begin(net, 0, geom.Point{})
		return nil, err
	}
	sc.begin(net, r.edgeUnits(net.ID), r.G.Nodes[dst].Pos)

	r.push(sc, stateKey{node: src, gap: -1}, 0, -1, -1)

	expanded := 0
	for sc.open.len() > 0 {
		si := sc.open.pop().idx
		st := sc.arena[si]
		if st.g > sc.best[sc.slot(st.key)].g() {
			continue // stale heap entry
		}
		if st.key.node == dst {
			res, ok := r.reconstruct(sc, net.ID, si)
			if ok {
				return res, nil
			}
			continue // self-intersecting path; keep searching
		}
		expanded++
		sc.expansions++
		if expanded > r.Opt.MaxExpansions {
			break
		}

		// Via-node states carry gap -1; edge-node states an insertion gap.
		if st.key.gap < 0 {
			r.expandVia(sc, st, si)
		} else {
			r.expandEdge(sc, st, si, dst)
		}
	}
	//rdl:allow noalloc failure path only: the error is built after the search is already lost, never per expansion
	return nil, fmt.Errorf("net %d (%s): %w", net.ID, net.Name, ErrUnroutable)
}

// expandVia expands a via-node state. A via entered through an access-via
// link must be left through its cross-via link (the wire descends or
// ascends); a via entered through a cross-via link must be left through an
// access-via link. The start pin may use anything available.
//
//rdl:noalloc
func (r *Router) expandVia(sc *searchScratch, st searchState, si int32) {
	arrivedCross := st.key.viaArrive
	isStart := st.link == -1
	for _, h := range r.G.Adj(st.key.node) {
		switch h.Kind {
		case rgraph.CrossVia:
			if !isStart && arrivedCross {
				continue // no double layer hop through one via pair
			}
			// Per-net layer constraint: a static design property.
			if sc.layerLimited && !r.G.LayerAllowed(sc.net, r.G.Nodes[h.To].Layer) {
				continue
			}
			if lu := &r.linkUse[h.Link]; lu.use >= lu.cap {
				sc.blockLink(h.Link)
				continue
			}
			if nu := &r.nodeUse[h.To]; nu.use >= nu.cap {
				sc.blockNode(h.To)
				continue
			}
			r.push(sc, stateKey{node: h.To, gap: -1, viaArrive: true}, st.g+h.Len, si, h.Link)
		case rgraph.AccessVia:
			if !isStart && !arrivedCross {
				continue // entered by wire; must take the via down/up
			}
			if lu := &r.linkUse[h.Link]; lu.use >= lu.cap {
				sc.blockLink(h.Link)
				continue
			}
			r.pushChordToEdge(sc, st, si, h)
		}
	}
}

// expandEdge expands an edge-node state through its cross-tile and
// access-via links, enumerating crossing-free insertion gaps.
//
//rdl:noalloc
func (r *Router) expandEdge(sc *searchScratch, st searchState, si int32, dst rgraph.NodeID) {
	for _, h := range r.G.Adj(st.key.node) {
		lu := &r.linkUse[h.Link]
		if lu.use >= lu.cap {
			sc.blockLink(h.Link)
			continue
		}
		switch h.Kind {
		case rgraph.AccessVia:
			// h.To is the via node (link.A is always the via end).
			if nu := &r.nodeUse[h.To]; nu.use >= nu.cap {
				sc.blockNode(h.To)
				continue
			}
			// Foreign pins are never intermediate hops.
			if pn := r.G.PinNet[h.To]; pn != rgraph.NoPin && h.To != dst &&
				!r.G.Design.SameGroup(int(pn), sc.net) {
				continue
			}
			if pcs := r.tileChords(sc, h.Tile); len(pcs) > 0 &&
				!chordAllowedCoords(r.gapCoordAt(h.Tile, h.FromOrd, int(st.key.gap)), vertexCoord(h.ToOrd), pcs) {
				sc.blockTile(h.Tile)
				continue
			}
			r.push(sc, stateKey{node: h.To, gap: -1, viaArrive: false}, st.g+h.Len, si, h.Link)
		case rgraph.CrossTile:
			if nu := &r.nodeUse[h.To]; nu.use+sc.units > nu.cap {
				sc.blockNode(h.To)
				continue
			}
			if lu.use+sc.units > lu.cap {
				sc.blockLink(h.Link)
				continue
			}
			r.pushGaps(sc, st, si, h, r.gapCoordAt(h.Tile, h.FromOrd, int(st.key.gap)))
		}
	}
}

// pushChordToEdge pushes states entering an edge node from a via node,
// trying every crossing-free insertion gap.
//
//rdl:noalloc
func (r *Router) pushChordToEdge(sc *searchScratch, st searchState, si int32, h rgraph.Adjacent) {
	if nu := &r.nodeUse[h.To]; nu.use+sc.units > nu.cap {
		sc.blockNode(h.To)
		return
	}
	r.pushGaps(sc, st, si, h, vertexCoord(h.FromOrd))
}

// pushGaps pushes the states of hop h into every insertion gap of its edge
// node whose chord from boundary coordinate q1 crosses no foreign chord of
// the tile, and records the tile as blocking for every gap that does.
//
//rdl:noalloc
func (r *Router) pushGaps(sc *searchScratch, st searchState, si int32, h rgraph.Adjacent, q1 float64) {
	pcs := r.tileChords(sc, h.Tile)
	m := len(r.seqs[h.To])
	sameDir := r.G.TileEdges[h.Tile].SameDir[h.ToOrd]
	for g2 := 0; g2 <= m; g2++ {
		if !chordAllowedCoords(q1, gapCoord(int(h.ToOrd), sameDir, m, g2), pcs) {
			sc.blockTile(h.Tile)
			continue
		}
		r.push(sc, stateKey{node: h.To, gap: int16(g2)}, st.g+h.Len, si, h.Link)
	}
}

// reconstruct walks the arena parents back to the start. It reports false
// when the path visits any node twice (a self-intersecting guide, which the
// commit machinery does not support). The revisit check reuses the scratch
// seen stamps instead of allocating a map per call.
//
//rdl:noalloc
func (r *Router) reconstruct(sc *searchScratch, net int, goal int32) (*searchResult, bool) {
	arena := sc.arena
	n := 0
	for i := goal; i != -1; i = arena[i].parent {
		n++
	}
	//rdl:allow noalloc the result path is budget alloc 1 of 4: commit keeps nodes in the Guide, so they cannot alias scratch
	nodes := make([]rgraph.NodeID, n)
	//rdl:allow noalloc the result path is budget alloc 2 of 4: commit keeps links in the Guide, so they cannot alias scratch
	links := make([]int, n-1)
	if cap(sc.gapsBuf) < n {
		//rdl:allow noalloc gapsBuf growth is amortized: it reallocates only while the longest path seen keeps growing
		sc.gapsBuf = make([]int, n)
	}
	gaps := sc.gapsBuf[:n]

	sc.seenGen++
	if sc.seenGen == 0 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.seenGen = 1
	}
	k := n - 1
	for i := goal; i != -1; i = arena[i].parent {
		st := &arena[i]
		if sc.seen[st.key.node] == sc.seenGen {
			return nil, false
		}
		sc.seen[st.key.node] = sc.seenGen
		nodes[k] = st.key.node
		gaps[k] = int(st.key.gap)
		if st.link != -1 {
			links[k-1] = int(st.link)
		}
		k--
	}
	// Note: a path may revisit a tile and topologically cross its own
	// earlier chord there. That is deliberately allowed: the minimum-spacing
	// rule of §II-B applies only between different nets, so a guide crossing
	// itself is electrically and DRC-legal (merely suboptimal, which the
	// shortest-path objective already discourages).
	//rdl:allow noalloc result header is budget alloc 3 of 4 pinned by TestRouteSearchDoesNotAllocate
	return &searchResult{net: net, nodes: nodes, links: links, gaps: gaps}, true
}
