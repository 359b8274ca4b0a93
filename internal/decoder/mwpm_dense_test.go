package decoder

import (
	"fmt"

	"surfnet/internal/graph"
	"surfnet/internal/matching"
)

// decodeDense is the pre-cache reference construction: fresh weighted graph,
// one Dijkstra per syndrome, and the dense 2q-vertex twin instance with the
// explicit zero-weight twin-twin clique. It is the oracle for the
// sparse/dense equivalence property tests and the dense benchmark row.
func decodeDense(in Input) (corr []int, total float64, err error) {
	if err := in.validate(); err != nil {
		return nil, 0, err
	}
	q := len(in.Syndromes)
	if q == 0 {
		return nil, 0, nil
	}
	dg := in.Graph
	wg := graph.NewWeighted(dg.G.NumVertices())
	for i := 0; i < dg.G.NumEdges(); i++ {
		e := dg.G.Edge(i)
		e.Weight = qubitWeight(in, e.ID)
		wg.AddEdge(e)
	}
	sps := make([]*graph.ShortestPaths, q)
	for i, s := range in.Syndromes {
		sps[i] = wg.Dijkstra(s)
	}
	// Matching instance: vertices [0,q) are syndromes, [q,2q) their
	// boundary twins; twins pair among themselves for free.
	var edges []matching.Edge
	for i := 0; i < q; i++ {
		for j := i + 1; j < q; j++ {
			edges = append(edges, matching.Edge{
				U: i, V: j,
				Weight: sps[i].Dist[in.Syndromes[j]],
			})
		}
		_, bd := nearestBoundary(sps[i], dg)
		edges = append(edges, matching.Edge{U: i, V: q + i, Weight: bd})
		for j := i + 1; j < q; j++ {
			edges = append(edges, matching.Edge{U: q + i, V: q + j, Weight: 0})
		}
	}
	mate, total, err := matching.MinWeightPerfect(2*q, edges)
	if err != nil {
		return nil, 0, fmt.Errorf("matching syndromes: %w", err)
	}
	flip := make([]bool, dg.G.NumEdges())
	addPath := func(path []int) {
		for _, ei := range path {
			id := wg.Edge(ei).ID
			flip[id] = !flip[id]
		}
	}
	for i := 0; i < q; i++ {
		switch m := mate[i]; {
		case m == q+i: // matched to own boundary twin
			target, _ := nearestBoundary(sps[i], dg)
			addPath(sps[i].PathTo(wg, target))
		case m < q && m > i: // syndrome pair, count once
			addPath(sps[i].PathTo(wg, in.Syndromes[m]))
		}
	}
	for id, on := range flip {
		if on {
			corr = append(corr, id)
		}
	}
	return corr, total, nil
}
