"""Trust-network analysis: communities, PageRank leaders, trust propagation.

Community detection runs on a symmetrized view of the directed trust graph
(an undirected edge wherever at least one direction exists, weighted by the
larger of the two values).  PageRank and propagation respect the original
edge directions.

``save_graph`` and ``load_graph`` write and read the graph stage's ``graph.ckpt``.
"""

from dataclasses import dataclass

import numpy as np

from .serialize import load_checkpoint, save_checkpoint

# Gains this close are treated as ties so float noise cannot flip a move.
_GAIN_EPS = 1e-12


@dataclass
class GraphOptions:
    """Propagation and leader-selection settings."""

    decay: float = 0.8
    max_depth: int = 3
    damping: float = 0.85
    louvain_seed: int = 0

    def __post_init__(self):
        if not 0 < self.decay <= 1:
            raise ValueError("decay must lie in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 0 <= self.damping < 1:
            raise ValueError("damping must lie in [0, 1)")


def directed_adjacency(graph):
    """CSR matrix of the directed trust edges, A[u, v] = t_uv."""
    from scipy import sparse
    n = graph.num_users
    return sparse.csr_matrix((graph.data, (graph.rows(), graph.indices)), shape=(n, n))


def symmetrized_adjacency(graph):
    """Undirected CSR view: weight max(t_uv, t_vu), both triangles filled."""
    a = directed_adjacency(graph)
    return a.maximum(a.T).tocsr()


def modularity(adjacency, labels):
    """Newman modularity of a labelling over a symmetric weighted adjacency.

    Self-loop entries are taken at face value (matrix convention: a collapsed
    community's internal weight w appears as A_ii = 2w).  A graph with no
    edges has modularity zero by definition.
    """
    from scipy import sparse
    adjacency = sparse.csr_matrix(adjacency)
    labels = np.asarray(labels)
    two_w = adjacency.sum()
    if two_w == 0:
        return 0.0
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    coo = adjacency.tocoo()
    internal = coo.data[labels[coo.row] == labels[coo.col]].sum()
    totals = np.bincount(labels, weights=degrees)
    return float(internal / two_w - ((totals / two_w) ** 2).sum())


@dataclass
class CommunityAssignment:
    """Result of community detection: a label per user plus the achieved score."""

    labels: np.ndarray
    num_communities: int
    modularity: float


def louvain(graph, seed=0):
    """Two-phase greedy modularity maximization on the symmetrized trust graph.

    Local moves visit nodes in a seeded shuffled order; a node moves only for
    a strictly positive gain (beyond a tiny epsilon), preferring its current
    community and then the smallest community label on ties.  After a pass
    with no moves the graph is aggregated and the procedure repeats, so the
    result is deterministic for a given graph and seed.
    """
    adjacency = symmetrized_adjacency(graph)
    n = graph.num_users
    labels = np.arange(n)
    if adjacency.nnz == 0:
        return CommunityAssignment(labels, n, 0.0)

    rng = np.random.default_rng(seed)
    level_adj = adjacency
    while True:
        level_labels, moved = _one_level(level_adj, rng)
        level_labels = _relabel(level_labels)
        labels = level_labels[labels]
        if not moved:
            break
        level_adj = _aggregate(level_adj, level_labels)
    labels = _relabel(labels)
    num = int(labels.max()) + 1
    return CommunityAssignment(labels, num, modularity(adjacency, labels))


def _relabel(labels):
    """Map labels to 0..k-1 in order of first occurrence."""
    _, first = np.unique(labels, return_index=True)
    order = labels[np.sort(first)]
    lookup = np.empty(labels.max() + 1, dtype=np.int64)
    lookup[order] = np.arange(len(order))
    return lookup[labels]


def _one_level(adjacency, rng):
    """Repeated single-node moves until none improves modularity."""
    n = adjacency.shape[0]
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    two_w = degrees.sum()
    comm = np.arange(n)
    tot = degrees.copy()
    moved_any = False

    improved = True
    while improved:
        improved = False
        for v in rng.permutation(n):
            kv = degrees[v]
            home = comm[v]
            # Weight from v to each neighboring community, self-loop excluded.
            link = {}
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                if u != v:
                    c = comm[u]
                    link[c] = link.get(c, 0.0) + data[e]
            tot[home] -= kv
            best_c = home
            best_gain = link.get(home, 0.0) - tot[home] * kv / two_w
            for c, kvc in sorted(link.items()):
                if c == home:
                    continue
                gain = kvc - tot[c] * kv / two_w
                if gain > best_gain + _GAIN_EPS or (
                    abs(gain - best_gain) <= _GAIN_EPS and best_c != home and c < best_c
                ):
                    best_gain = gain
                    best_c = c
            tot[best_c] += kv
            if best_c != home:
                comm[v] = best_c
                improved = True
                moved_any = True
    return comm, moved_any


def _aggregate(adjacency, labels):
    """Collapse communities into super-nodes, keeping the matrix convention.

    Each stored (i, j) entry lands in (c_i, c_j), so an internal undirected
    edge contributes its weight twice to the new diagonal.
    """
    from scipy import sparse
    coo = adjacency.tocoo()
    k = int(labels.max()) + 1
    agg = sparse.csr_matrix((coo.data, (labels[coo.row], labels[coo.col])), shape=(k, k))
    agg.sum_duplicates()
    return agg


def pagerank(adjacency, damping=0.85, tol=1e-10, max_iter=None):
    """Power iteration PageRank on a directed weighted adjacency.

    Out-transition probabilities are proportional to edge weights; the mass of
    nodes with no out-edges is spread uniformly.  Iteration stops when the L1
    change drops below ``tol``.  Step t changes the scores by at most
    2·damping^t in L1, so by default the budget is the first step past a
    positive ``tol``: 2 + floor(log(tol/2) / log(damping)), or 2 at damping 0.
    """
    from scipy import sparse
    if not 0 <= damping < 1:
        raise ValueError("damping must lie in [0, 1)")
    if max_iter is None:
        max_iter = 2 + (int(np.log(tol / 2) / np.log(damping)) if damping > 0 else 0)
    adjacency = sparse.csr_matrix(adjacency)
    n = adjacency.shape[0]
    if n == 0:
        return np.zeros(0)
    out_weight = np.asarray(adjacency.sum(axis=1)).ravel()
    dangling = out_weight == 0
    inv_out = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_weight))
    transition = sparse.diags(inv_out) @ adjacency

    scores = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = scores @ transition
        spread += scores[dangling].sum() / n
        new = damping * spread + (1.0 - damping) / n
        if np.abs(new - scores).sum() < tol:
            return new / new.sum()
        scores = new
    raise RuntimeError(f"pagerank did not converge in {max_iter} iterations")


@dataclass
class LeaderTable:
    """The most central member of each community.

    ``leaders[c]`` is the user index leading community c; ``labels`` is the
    per-user community assignment the table was built against.
    """

    leaders: np.ndarray
    labels: np.ndarray

    def user_leaders(self):
        """Per-user leader index, -1 where the user is the leader themselves."""
        out = self.leaders[self.labels].astype(np.int64)
        out[out == np.arange(len(self.labels))] = -1
        return out


def community_leaders(graph, communities, damping=0.85):
    """Pick each community's leader by PageRank within its induced subgraph.

    PageRank runs on the subgraph of the directed trust graph spanned by the
    community's members; ties go to the smallest user index.  Singleton
    communities lead themselves.
    """
    adjacency = directed_adjacency(graph)
    labels = communities.labels
    leaders = np.zeros(communities.num_communities, dtype=np.int64)
    for c in range(communities.num_communities):
        members = np.flatnonzero(labels == c)
        if len(members) == 1:
            leaders[c] = members[0]
            continue
        sub = adjacency[members][:, members]
        leaders[c] = members[int(np.argmax(pagerank(sub, damping=damping)))]
    return LeaderTable(leaders, labels)


@dataclass
class PropagatedTrust:
    """Indirect trust within the propagation horizon, one entry per pair.

    ``truster[j]`` trusts ``trustee[j]`` with value ``values[j]``; pairs run
    by ascending truster, then by hop count, then by discovery rank (see
    ``propagate_trust``).
    """

    truster: np.ndarray
    trustee: np.ndarray
    values: np.ndarray
    num_users: int

    def __post_init__(self):
        self.truster = np.asarray(self.truster, dtype=np.int64)
        self.trustee = np.asarray(self.trustee, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def num_pairs(self):
        return len(self.values)


# Candidate pairs one propagation join holds at most (about 0.5 MB per
# int64 array); a source whose own candidates exceed it is joined alone.
_JOIN_CANDIDATES = 1 << 16


def propagate_trust(graph, decay=0.8, max_depth=3):
    """Extend direct trust along short directed paths with geometric damping.

    The value for a pair at shortest-path distance d is the largest product
    of edge trusts over any shortest path, scaled by decay^(d-1); direct
    edges keep their stored value.  Pairs farther than ``max_depth`` hops (or
    unreachable) are absent.

    Pairs run by (truster, hop, discovery rank), the order ``graph.ckpt``
    stores.  Hop 1 is the truster's CSR row in row order.  Hop d+1 scans
    hop d's nodes in their order, each node's CSR row in row order, and
    ranks a node by its first candidate with a positive product; nodes
    reached at an earlier hop (or the truster itself) are skipped.

    Sources run in blocks of at most ``_JOIN_CANDIDATES`` hop-2 candidates,
    each through all hops, and each hop is one array join per sub-block
    of the same size; blocks never split a source.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    out_degree = np.diff(graph.indptr)
    source, node, product = graph.rows(), graph.indices, graph.data
    blocks = [
        _propagate_block(graph, out_degree, source[lo:hi], node[lo:hi], product[lo:hi], decay, max_depth)
        for lo, hi in _source_blocks(source, out_degree[node])
    ]
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else ([], [], [])
    return PropagatedTrust(*columns, graph.num_users)


def save_graph(path, communities, leaders, propagated):
    """Write a CommunityAssignment, its LeaderTable and a PropagatedTrust to ``path``."""
    arrays = {
        "labels": communities.labels,
        "modularity": np.array([communities.modularity]),
        "leaders": leaders.leaders,
        "pairs": np.column_stack([propagated.truster, propagated.trustee, propagated.values]),
    }
    meta = {"num_communities": communities.num_communities, "num_users": propagated.num_users}
    save_checkpoint(path, "graph", arrays, meta)


def load_graph(path):
    """(PropagatedTrust, LeaderTable) from a ``save_graph`` checkpoint."""
    _, arrays, meta = load_checkpoint(path, expect_kind="graph")
    leaders, labels = (arrays[name].astype(np.int64) for name in ("leaders", "labels"))
    return PropagatedTrust(*arrays["pairs"].T, meta["num_users"]), LeaderTable(leaders, labels)


def _propagate_block(graph, out_degree, source, node, product, decay, max_depth):
    """(truster, trustee, value) of the pairs reached from one block's edges."""
    n = graph.num_users
    # sorted source·n + node keys of each source and of every pair reached
    # so far, one array per hop
    seen = [np.sort(np.concatenate([np.unique(source) * (n + 1), source * n + node]))]
    levels = []
    for depth in range(1, max_depth + 1):
        levels.append((source, node, product * decay ** (depth - 1)))
        if depth == max_depth or not len(node):
            break
        fanout = out_degree[node]
        joins = [
            _join(graph, seen, source[lo:hi], node[lo:hi], product[lo:hi], fanout[lo:hi])
            for lo, hi in _source_blocks(source, fanout)
        ]
        source, node, product, keys = (np.concatenate(c) for c in zip(*joins))
        seen.append(keys)
    source, node, product = (np.concatenate(c) for c in zip(*levels))
    # each level runs by (source, rank); a stable sort interleaves them by source
    order = np.argsort(source, kind="stable")
    return source[order], node[order], product[order]


def _source_blocks(source, candidates):
    """(lo, hi) slices of a source-sorted frontier, cut between sources.

    A slice holds at most ``_JOIN_CANDIDATES`` candidates, or one source.
    """
    ends = np.flatnonzero(np.diff(source, append=-1)) + 1
    load = np.cumsum(candidates)[ends - 1]  # candidates through each source
    blocks, lo, done, i = [], 0, 0, 0
    while i < len(ends):
        i = max(int(np.searchsorted(load, done + _JOIN_CANDIDATES, side="right")), i + 1)
        blocks.append((lo, ends[i - 1]))
        lo, done = ends[i - 1], load[i - 1]
    return blocks


def _join(graph, seen, source, node, product, fanout):
    """The next hop of one block of sources, as (source, node, product, keys).

    ``fanout`` is each frontier node's out-degree.  The new nodes come in
    discovery order with their largest product; ``keys`` holds their
    source·n + node keys sorted.
    """
    n = graph.num_users
    ends = np.cumsum(fanout)
    edge = np.arange(ends[-1]) + np.repeat(graph.indptr[node] - ends + fanout, fanout)
    key = np.repeat(source, fanout) * n + graph.indices[edge]
    value = np.repeat(product, fanout) * graph.data[edge]
    found = np.flatnonzero(value > 0.0)  # candidate positions, sorted by key next
    found = found[np.argsort(key[found])]
    starts = np.flatnonzero(np.diff(key[found], prepend=-1))
    keys = key[found[starts]]
    new = np.ones(len(keys), dtype=bool)
    for old in seen:
        at = np.minimum(np.searchsorted(old, keys), len(old) - 1)
        new &= old[at] != keys
    first = np.minimum.reduceat(found, starts)[new]
    best = np.maximum.reduceat(value[found], starts)[new]
    keys = keys[new]
    rank = np.argsort(first)
    return keys[rank] // n, keys[rank] % n, best[rank], keys
