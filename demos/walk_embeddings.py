"""Biased walks on a barbell graph and what the embeddings make of it.

Two 5-cliques joined by a single bridge: walk statistics depend on the
return/in-out parameters, and the learned vectors separate the cliques.
"""

from itertools import combinations

import numpy as np

from trustrec.data import TrustGraph
from trustrec.embed import WalkConfig, cosine_similarity, node_embeddings, step_distribution, symmetrized_adjacency

cliques = [(a + side, b + side, 1.0) for a, b in combinations(range(5), 2) for side in (0, 5)]
graph = TrustGraph.from_edges(10, cliques + [(4, 5, 1.0)])  # (4, 5) is the bridge

adjacency = symmetrized_adjacency(graph)

# standing on the bridge node 4 having come from inside the left clique:
# low q pushes outward across the bridge, high q pulls back in
for p, q in ((1.0, 1.0), (1.0, 0.25), (1.0, 4.0)):
    candidates, probs = step_distribution(adjacency, 0, 4, p, q)
    across = probs[list(candidates).index(5)]
    print(f"p={p} q={q}: step 0->4 crosses the bridge with prob {across:.3f}")

config = WalkConfig(dimensions=8, num_walks=20, walk_length=30, window=3,
                    negatives=5, epochs=3, learning_rate=0.05, seed=0)
table = node_embeddings(graph, config)

intra, inter = [], []
for a in range(10):
    for b in range(a + 1, 10):
        value = cosine_similarity(table[a], table[b])
        (intra if (a < 5) == (b < 5) else inter).append(value)
print(f"mean cosine within a clique  {np.mean(intra):+.3f}")
print(f"mean cosine across the bridge {np.mean(inter):+.3f}")
