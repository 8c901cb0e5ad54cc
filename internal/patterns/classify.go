package patterns

import (
	"repro/internal/matrix"
)

// The classifiers answer, mechanically, the question every module
// asks the student: "Which choice is the displayed traffic pattern
// most relevant to?" Tests use them to prove each generated figure is
// recognizably the behaviour it teaches; the analyst examples use
// them on simulated live traffic.

// GraphKind enumerates the graph-theory shapes of Fig 10.
type GraphKind int

const (
	// GraphUnknown is returned when no shape matches.
	GraphUnknown GraphKind = iota
	// GraphStar is a hub linked to every other active vertex.
	GraphStar
	// GraphClique is a complete subgraph (k ≥ 4; see GraphTriangle).
	GraphClique
	// GraphBipartite is a complete bipartite graph.
	GraphBipartite
	// GraphTree is a connected acyclic graph that is not a star.
	GraphTree
	// GraphRing is a single cycle over ≥ 4 vertices.
	GraphRing
	// GraphMesh is a non-regular triangle-free grid.
	GraphMesh
	// GraphTorus is a regular triangle-free grid with wraparound.
	GraphTorus
	// GraphSelfLoop is diagonal-only traffic.
	GraphSelfLoop
	// GraphTriangle is a single 3-cycle.
	GraphTriangle
)

// graphKindNames holds display names indexed by GraphKind.
var graphKindNames = [...]string{
	"unknown", "star", "clique", "bipartite", "tree", "ring",
	"mesh", "toroidal mesh", "self loop", "triangle",
}

// String returns the kind's display name.
func (k GraphKind) String() string {
	if k < 0 || int(k) >= len(graphKindNames) {
		return "unknown"
	}
	return graphKindNames[k]
}

// undirected captures the simple undirected graph underlying a
// traffic matrix: the view the Fig 10 shapes are defined on.
type undirected struct {
	n      int
	adj    [][]bool
	degree []int
	active []int
	edges  int
}

// newUndirected symmetrizes the off-diagonal pattern of m.
func newUndirected(m *matrix.Dense) *undirected {
	n := m.Rows()
	u := &undirected{
		n:      n,
		adj:    make([][]bool, n),
		degree: make([]int, n),
	}
	for i := range u.adj {
		u.adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.At(i, j) != 0 || m.At(j, i) != 0 {
				u.adj[i][j] = true
				u.adj[j][i] = true
				u.degree[i]++
				u.degree[j]++
				u.edges++
			}
		}
	}
	for i := 0; i < n; i++ {
		if u.degree[i] > 0 {
			u.active = append(u.active, i)
		}
	}
	return u
}

// connected reports whether the active vertices form one component.
func (u *undirected) connected() bool {
	if len(u.active) == 0 {
		return false
	}
	seen := make([]bool, u.n)
	queue := []int{u.active[0]}
	seen[u.active[0]] = true
	count := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		count++
		for w := 0; w < u.n; w++ {
			if u.adj[v][w] && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return count == len(u.active)
}

// bipartition 2-colors the active vertices by BFS. It returns the
// two parts and whether the graph is bipartite.
func (u *undirected) bipartition() (a, b []int, ok bool) {
	color := make([]int, u.n) // 0 unvisited, 1/2 the parts
	for _, start := range u.active {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for w := 0; w < u.n; w++ {
				if !u.adj[v][w] {
					continue
				}
				if color[w] == 0 {
					color[w] = 3 - color[v]
					queue = append(queue, w)
				} else if color[w] == color[v] {
					return nil, nil, false
				}
			}
		}
	}
	for _, v := range u.active {
		if color[v] == 1 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a, b, true
}

// triangleFree reports whether the graph contains no 3-cycles.
func (u *undirected) triangleFree() bool {
	for _, a := range u.active {
		for _, b := range u.active {
			if b <= a || !u.adj[a][b] {
				continue
			}
			for _, c := range u.active {
				if c <= b || !u.adj[b][c] {
					continue
				}
				if u.adj[a][c] {
					return false
				}
			}
		}
	}
	return true
}

// regular returns the common degree of all active vertices, or -1
// when degrees differ.
func (u *undirected) regular() int {
	d := -1
	for _, v := range u.active {
		if d == -1 {
			d = u.degree[v]
		} else if u.degree[v] != d {
			return -1
		}
	}
	return d
}

// ClassifyGraph identifies which Fig 10 shape a traffic matrix
// draws. Ambiguous degenerate cases resolve in the order the checks
// run (documented on each branch); anything unrecognized returns
// GraphUnknown.
func ClassifyGraph(m *matrix.Dense) GraphKind {
	if !m.IsSquare() || m.NNZ() == 0 {
		return GraphUnknown
	}
	// Self loop: every non-zero cell sits on the diagonal.
	if matrix.ProfileOf(m).OffDiagNNZ == 0 {
		return GraphSelfLoop
	}

	u := newUndirected(m)
	k := len(u.active)
	if k == 0 {
		return GraphUnknown
	}

	// Triangle: exactly three mutually linked vertices. Checked
	// before clique so K₃ reads as the triangle lesson.
	if k == 3 && u.edges == 3 {
		return GraphTriangle
	}
	// Clique: all pairs linked, k ≥ 4.
	if k >= 4 && u.edges == k*(k-1)/2 {
		return GraphClique
	}
	// Star: one hub of degree k-1, all others degree 1. Checked
	// before tree (a star is a tree) and before bipartite (a star
	// is K₁,ₖ).
	if k >= 4 && u.edges == k-1 {
		hubs, leaves := 0, 0
		for _, v := range u.active {
			switch u.degree[v] {
			case k - 1:
				hubs++
			case 1:
				leaves++
			}
		}
		if hubs == 1 && leaves == k-1 {
			return GraphStar
		}
	}
	if !u.connected() {
		return GraphUnknown
	}
	// Tree: connected and acyclic.
	if u.edges == k-1 {
		return GraphTree
	}
	// Ring: a single cycle over ≥ 4 vertices (a 3-cycle already
	// classified as triangle; a 2×2 mesh is also a 4-cycle and
	// resolves here as ring).
	if u.edges == k && u.regular() == 2 {
		return GraphRing
	}
	// Complete bipartite: 2-colorable with every cross pair linked.
	// Checked before torus because K₃,₃ is regular too.
	if a, b, ok := u.bipartition(); ok && len(a) >= 2 && len(b) >= 2 && u.edges == len(a)*len(b) {
		return GraphBipartite
	}
	// A torus is regular of degree 3 (when one grid dimension is 2)
	// or 4; it need not be triangle-free (wrapping a length-3
	// dimension creates 3-cycles). Cliques, rings, and complete
	// bipartite graphs — the other regular shapes — were classified
	// above.
	if d := u.regular(); d == 3 || d == 4 {
		return GraphTorus
	}
	// A bounded mesh is triangle-free with corner vertices of
	// smaller degree than interior ones.
	if u.triangleFree() {
		minDeg, maxDeg := u.n, 0
		for _, v := range u.active {
			if u.degree[v] < minDeg {
				minDeg = u.degree[v]
			}
			if u.degree[v] > maxDeg {
				maxDeg = u.degree[v]
			}
		}
		if minDeg >= 2 && maxDeg <= 4 && maxDeg > minDeg {
			return GraphMesh
		}
	}
	return GraphUnknown
}

// TopologyKind enumerates the Fig 6 basic traffic topologies.
type TopologyKind int

const (
	// TopologyUnknown is returned when no topology matches.
	TopologyUnknown TopologyKind = iota
	// TopologyIsolatedLinks is disjoint reciprocated pairs.
	TopologyIsolatedLinks
	// TopologySingleLinks is disjoint unreciprocated links.
	TopologySingleLinks
	// TopologyInternalSupernode is a high-fan hub in blue space.
	TopologyInternalSupernode
	// TopologyExternalSupernode is a high-fan hub outside blue
	// space.
	TopologyExternalSupernode
)

// topologyNames holds display names indexed by TopologyKind.
var topologyNames = [...]string{
	"unknown", "isolated links", "single links",
	"internal supernode", "external supernode",
}

// String returns the topology's display name.
func (k TopologyKind) String() string {
	if k < 0 || int(k) >= len(topologyNames) {
		return "unknown"
	}
	return topologyNames[k]
}

// SupernodeFanThreshold is the minimum distinct-peer count that makes
// a vertex a supernode rather than an ordinary busy host.
const SupernodeFanThreshold = 3

// ClassifyTopologyOf returns m's Summary.Topology.
func ClassifyTopologyOf(m matrix.Matrix, z Zones) TopologyKind {
	return new(Summary).Summarize(m, z, nil).Topology()
}

// Topology identifies which Fig 6 topology the matrix shows, using
// the zones to split internal from external supernodes: a vertex
// with at least SupernodeFanThreshold distinct peers is a supernode,
// and a matrix whose every vertex has at most one peer is isolated
// links when every link is answered, single links when none is.
func (s *Summary) Topology() TopologyKind {
	if !s.zoned || s.NNZ == 0 {
		return TopologyUnknown
	}
	maxFan, hub := 0, -1
	allFanOne := true
	for v := 0; v < s.N; v++ {
		// Distinct peers: out-fan plus in-fan, less the partners both
		// count and the self loop.
		fan := s.OutFan[v] + s.InFan[v] - s.Partners[v] - 2*s.selfLoop(v)
		if fan > maxFan {
			maxFan, hub = fan, v
		}
		if fan > 1 {
			allFanOne = false
		}
	}
	if maxFan >= SupernodeFanThreshold {
		if s.Zones.Of(hub) == ZoneBlue {
			return TopologyInternalSupernode
		}
		return TopologyExternalSupernode
	}
	if allFanOne {
		if s.Reciprocal > 0 && 2*s.Reciprocal == s.OffDiagNNZ {
			return TopologyIsolatedLinks
		}
		if s.Reciprocal == 0 {
			return TopologySingleLinks
		}
	}
	return TopologyUnknown
}

// attackSignatures lists each stage's zone flows.
var attackSignatures = [...][][2]Zone{
	StagePlanning:     {{ZoneRed, ZoneRed}},
	StageStaging:      {{ZoneRed, ZoneGrey}, {ZoneGrey, ZoneRed}},
	StageInfiltration: {{ZoneGrey, ZoneBlue}, {ZoneBlue, ZoneGrey}},
	StageLateral:      {{ZoneBlue, ZoneBlue}},
}

// ClassifyAttackStageOf returns m's Summary.AttackStage.
func ClassifyAttackStageOf(m matrix.Matrix, z Zones) (AttackStage, float64) {
	return new(Summary).Summarize(m, z, nil).AttackStage()
}

// AttackStage returns the attack stage whose signature flows explain
// the largest fraction of the matrix's links, with that fraction as a
// confidence. Pure single-stage matrices score 1.0; a combined
// campaign scores the dominant stage lower.
func (s *Summary) AttackStage() (AttackStage, float64) {
	k, score := s.bestFraction(len(attackSignatures), func(k int) int { return s.zoneHits(attackSignatures[k]) })
	return AttackStage(k), score
}

// postureSignatures lists each protection posture's zone flows.
var postureSignatures = [...][][2]Zone{
	PostureSecurity:   {{ZoneBlue, ZoneBlue}},
	PostureDefense:    {{ZoneBlue, ZoneGrey}, {ZoneGrey, ZoneBlue}},
	PostureDeterrence: {{ZoneBlue, ZoneRed}, {ZoneRed, ZoneRed}},
}

// ClassifyPosture returns m's Summary.Posture.
func ClassifyPosture(m *matrix.Dense, z Zones) (Posture, float64) {
	return new(Summary).Summarize(m, z, nil).Posture()
}

// Posture returns the security/defense/deterrence concept whose
// signature flows best explain the matrix, with the explained
// fraction as confidence.
func (s *Summary) Posture() (Posture, float64) {
	k, score := s.bestFraction(len(postureSignatures), func(k int) int { return s.zoneHits(postureSignatures[k]) })
	return Posture(k), score
}

// ClassifyDDoSOf returns m's Summary.DDoS for the given cast.
func ClassifyDDoSOf(m matrix.Matrix, roles DDoSRoles) (DDoSComponent, float64) {
	return new(Summary).Summarize(m, Zones{}, &roles).DDoS()
}

// DDoS returns the DDoS component that best explains the matrix given
// the cast the summary was taken with, with the explained fraction of
// stored cells as confidence. Without a cast every component scores
// 0.
func (s *Summary) DDoS() (DDoSComponent, float64) {
	k, score := s.bestFraction(len(s.ddos), func(k int) int { return s.ddos[k] })
	return DDoSComponent(k), score
}
