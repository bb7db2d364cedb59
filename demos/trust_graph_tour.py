"""Walk the trust graph: communities, leaders, centrality, propagation."""

import numpy as np

from trustrec.graph import community_leaders, directed_adjacency, louvain, pagerank, propagate_trust
from trustrec.synth import toy_bundle

bundle = toy_bundle(seed=0)
graph = bundle.trust

communities = louvain(graph, seed=0)
print(f"louvain found {communities.num_communities} communities, "
      f"modularity {communities.modularity:.3f}")
for c in range(communities.num_communities):
    members = np.flatnonzero(communities.labels == c)
    print(f"  community {c}: users {members.tolist()}")
print(f"planted assignment for comparison: {bundle.communities.tolist()}")

leaders = community_leaders(graph, communities)
print(f"leaders by in-community pagerank: {leaders.leaders.tolist()}")
print(f"planted hubs were: {bundle.hubs.tolist()}")

scores = pagerank(directed_adjacency(graph))
top = np.argsort(scores)[::-1][:5]
print("five most central users overall:", [(int(u), round(float(scores[u]), 4)) for u in top])

propagated = propagate_trust(graph, decay=0.8, max_depth=3)
direct = graph.num_edges
reachable = propagated.num_pairs
print(f"{direct} direct edges propagate to {reachable} trusting pairs within 3 hops")

# one concrete chain: strongest indirect value that has no direct edge
direct_pairs = {(u, v) for u, v, _ in graph.edges()}
best = max(
    ((u, v, t) for u, v, t in zip(propagated.truster.tolist(), propagated.trustee.tolist(), propagated.values.tolist())
     if (u, v) not in direct_pairs),
    key=lambda uvt: uvt[2],
)
print(f"strongest purely indirect trust: {best[0]} -> {best[1]} at {best[2]:.3f}")
