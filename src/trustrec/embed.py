"""Node embeddings for the trust graph: biased random walks plus skip-gram.

Walks follow the second-order scheme of node2vec on the symmetrized graph:
stepping from ``cur`` after arriving from ``prev``, a candidate ``x`` is
weighted by edge weight times 1/p when x is prev itself, 1 when x is also a
neighbor of prev, and 1/q otherwise.  Each start node draws from its own
seeded generator stream, so walk generation does not depend on the order in
which nodes are processed.  ``step_distribution`` is the exact law of one
step; ``generate_walks`` samples it for all walkers at once, advancing every
start node's walk in lockstep over the shared CSR arrays, and draws exactly
the walks a per-step loop over ``step_distribution`` would.

The skip-gram reads that walk array in place and trains input vectors
against context vectors with negative sampling from the 3/4-power unigram
distribution over walk occurrences, in window batches (HogBatch, Ji et al.
2016): a walk position trains its whole window against its own node and one
shared negative set; ``_add_rows`` scatters each step into the input and
context tables, which are (num_nodes, dimensions) arrays.
"""

from dataclasses import dataclass

import numpy as np

from .graph import symmetrized_adjacency


@dataclass
class WalkConfig:
    """Walk generation and skip-gram training knobs."""

    dimensions: int = 10
    num_walks: int = 10
    walk_length: int = 80
    p: float = 1.0
    q: float = 1.0
    window: int = 5
    negatives: int = 5  # K, drawn once per walk position and shared by its window
    epochs: int = 1
    learning_rate: float = 0.025
    batch_size: int = 1024  # about this many pairs per step: batch_size // (2·window) positions
    seed: int = 0

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0 and self.learning_rate > 0):
            raise ValueError("p, q and learning_rate must be positive")
        if self.dimensions <= 0 or self.num_walks <= 0 or self.walk_length <= 0:
            raise ValueError("dimensions, num_walks, walk_length must be positive")
        if self.window <= 0 or self.negatives <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("window, negatives and batch_size must be positive, epochs nonnegative")


def step_distribution(adjacency, prev, cur, p, q):
    """Exact next-node distribution for one biased step.

    Returns (candidates, probabilities) over the neighbors of ``cur``; with
    ``prev`` None the distribution is simply edge-weight proportional.
    """
    from scipy import sparse
    adjacency = sparse.csr_matrix(adjacency)
    lo, hi = adjacency.indptr[cur], adjacency.indptr[cur + 1]
    candidates = adjacency.indices[lo:hi]
    weights = adjacency.data[lo:hi].astype(np.float64).copy()
    if len(candidates) == 0:
        return candidates, weights
    if prev is not None:
        plo, phi = adjacency.indptr[prev], adjacency.indptr[prev + 1]
        near_prev = np.isin(candidates, adjacency.indices[plo:phi], assume_unique=True)
        bias = np.where(near_prev, 1.0, 1.0 / q)
        bias[candidates == prev] = 1.0 / p
        weights *= bias
    return candidates, weights / weights.sum()


def _lockstep_round(csr, edge_keys, starts, uniforms, length, p, q):
    """One walk from every start node, all advancing together.

    Row w of the result is the walk from ``starts[w]``; its step s reads
    ``uniforms[w, s - 1]``.
    """
    indptr, indices, data = csr
    n = len(indptr) - 1
    walks = np.empty((len(starts), length), dtype=np.int64)
    walks[:, 0] = starts
    prev = None
    cur = starts
    for step in range(1, length):
        degrees = indptr[cur + 1] - indptr[cur]
        u = uniforms[:, step - 1]
        nxt = np.empty_like(cur)
        # Walkers at nodes of equal degree d form a (count, d) block whose
        # row sums, cumulative sums and comparisons reproduce the per-row
        # weights.sum(), np.cumsum and searchsorted(side="right") bit for bit.
        order = np.argsort(degrees, kind="stable")
        bounds = np.flatnonzero(np.diff(degrees[order])) + 1
        for group in np.split(order, bounds):
            d = int(degrees[group[0]])
            slots = indptr[cur[group]][:, None] + np.arange(d)
            candidates = indices[slots]
            weights = data[slots]
            if prev is not None:
                back = prev[group][:, None]
                keys = back * n + candidates
                found = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
                bias = np.where(edge_keys[found] == keys, 1.0, 1.0 / q)
                bias[candidates == back] = 1.0 / p
                weights = weights * bias
            cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
            pick = np.minimum((u[group][:, None] >= cdf).sum(axis=1), d - 1)
            nxt[group] = candidates[np.arange(len(group)), pick]
        walks[:, step] = nxt
        prev, cur = cur, nxt
    return walks


def generate_walks(graph_or_adjacency, config, nodes=None):
    """All biased walks for the graph, as one int64 array of walk_length columns.

    Every start node with at least one neighbor gets ``num_walks`` walks of
    ``walk_length`` nodes; isolated nodes yield no walks.  Walks run on an
    undirected graph, where every neighbor has an out-edge and no walk can
    stop early; an adjacency with an edge into a node without out-edges
    raises ValueError.

    The walks run in ``num_walks`` rounds; within a round the walks of all
    start nodes advance in lockstep, one vectorized step per position.  Step
    s of round r reads uniform r·(walk_length - 1) + s - 1 of the start
    node's ``default_rng([seed, node])`` stream.  So the walks are, bit for
    bit, those of a per-node, per-step loop over ``step_distribution``, and
    do not depend on the order of ``nodes``.  Row j·num_walks + r holds round
    r's walk from the j-th start node, in ``nodes`` order.
    """
    from scipy import sparse
    if sparse.issparse(graph_or_adjacency):
        adjacency = sparse.csr_matrix(graph_or_adjacency)
    else:
        adjacency = symmetrized_adjacency(graph_or_adjacency)
    n = adjacency.shape[0]
    indptr = adjacency.indptr.astype(np.int64)
    csr = (indptr, adjacency.indices.astype(np.int64), adjacency.data.astype(np.float64))
    degrees = np.diff(indptr)
    if np.any(degrees[csr[1]] == 0):
        raise ValueError("an edge points at a node with no out-edge; walks need an undirected graph")
    # sorted row*n + col keys answer "is x a neighbor of prev" by bisection
    edge_keys = np.sort(np.repeat(np.arange(n, dtype=np.int64), degrees) * n + csr[1])
    starts = np.arange(n) if nodes is None else np.asarray(list(nodes), dtype=np.int64)
    starts = starts[degrees[starts] > 0]
    if len(starts) == 0:
        return np.empty((0, config.walk_length), dtype=np.int64)
    steps = config.walk_length - 1
    uniforms = np.empty((len(starts), config.num_walks * steps))
    for row, s in enumerate(starts):
        uniforms[row] = np.random.default_rng([config.seed, int(s)]).random(uniforms.shape[1])
    rounds = [
        _lockstep_round(csr, edge_keys, starts, uniforms[:, r * steps :], config.walk_length, config.p, config.q)
        for r in range(config.num_walks)
    ]
    return np.stack(rounds, axis=1).reshape(-1, config.walk_length)


def _inverse_cdf(cdf):
    """Sampler ``u -> np.searchsorted(cdf, u)`` for u in [0, 1), exact and faster.

    [0, 1) splits into M = 16·2^⌈log2 n⌉ equal buckets; M is a power of two,
    so ``u * M`` floors exactly to u's bucket.  Where no CDF value lies inside
    a bucket, every u in it has the answer its lower edge has; only draws in
    the few other buckets run a binary search.
    """
    buckets = 16 << (len(cdf) - 1).bit_length()
    bounds = np.searchsorted(cdf, np.arange(buckets + 1) / buckets)
    lo, hi = bounds[:-1], bounds[1:]

    def sample(u):
        flat = u.ravel()
        bucket = (flat * buckets).astype(np.intp)
        found = lo[bucket]
        open_ = np.flatnonzero(found != hi[bucket])
        found[open_] = np.searchsorted(cdf, flat[open_])
        return found.reshape(u.shape)

    return sample


def _noise_cdf(counts):
    """CDF of the 3/4-power unigram noise law over nodes.

    It is exactly 1.0 from the last node with a positive count onwards: the
    rounded sum can end short of 1.0, and a draw past it would select no node.
    """
    noise = counts**0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf[np.flatnonzero(counts)[-1] :] = 1.0
    return cdf


def _add_rows(target, rows, values):
    """``np.add.at(target, rows, values)``, bit for bit, on a C-contiguous 2-D target.

    One 1-D ``np.add.at`` over flat indices adds each row's repeats in the
    order of ``rows``, much faster than numpy's row-indexed form.
    """
    if not target.flags.c_contiguous:
        raise ValueError("_add_rows needs a C-contiguous target")
    d = target.shape[1]
    flat = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    np.add.at(target.reshape(-1), flat, np.asarray(values).reshape(-1))


def _window_step(inputs, contexts, window, mask, outputs, lr):
    """One SGNS step on a batch of walk positions, updating both tables in place.

    Row t of ``window`` holds the nodes around position t in its walk, with
    ``mask[t]`` marking the slots inside the walk.  Row t of ``outputs``
    holds the position's own node (column 0, the positive) and then its K
    negatives, which every input of the window shares.  The scores are one
    batched product ``x @ yᵀ`` of shape (T, 2·window, K+1); every gradient
    comes from the values before the step, a masked slot adds zero, and
    ``_add_rows`` sums a repeated node's updates.
    """
    x = inputs[window]
    y = contexts[outputs]
    # the logistic as 0.5·(1 + tanh(s/2)), which cannot overflow
    g = 0.5 * (1.0 + np.tanh(0.5 * (x @ y.transpose(0, 2, 1))))
    g[:, :, 0] -= 1.0
    g *= mask[:, :, None]
    _add_rows(inputs, window.ravel(), -lr * (g @ y).reshape(window.size, -1))
    _add_rows(contexts, outputs.ravel(), -lr * (g.transpose(0, 2, 1) @ x).reshape(outputs.size, -1))


def train_embeddings(walks, num_nodes, config):
    """Skip-gram with negative sampling over the walk corpus, in window batches.

    ``walks`` holds one walk per row, as ``generate_walks`` returns them (a
    list of equal-length walks also works; a ragged or not 2-D one raises
    ValueError).  Its flat view is the token array: position ``at`` is step
    ``at % walk_length`` of its walk.  Input vectors start uniform in
    [-0.5/d, 0.5/d], context vectors at zero.  Each epoch shuffles the token
    positions; a batch of ``cap // (2·window)`` positions covers about
    ``cap`` pairs, ``cap`` being ``batch_size`` capped by the visited nodes.
    A position trains the nodes within ``window`` steps of it in its walk
    against its own node and K negatives from the 3/4-power unigram law,
    drawn once for the window.  So an epoch trains the walks' symmetric
    (center, context) pair set, each pair against a K-sample negative
    estimate; the shuffled order is the only per-token working array.  The
    learning rate decays linearly to a tenth of its start over all batches.
    Returns the (num_nodes, d) input vectors: fixed seed in, identical array
    out; nodes in no walk get zero rows.
    """
    walks = np.asarray(walks, dtype=np.int64)  # a ragged list raises ValueError here
    if walks.ndim != 2:
        raise ValueError(f"walks must be a 2-D array of walks, got {walks.ndim} dimensions")
    d, w = config.dimensions, config.window
    rng = np.random.default_rng(config.seed)
    inputs = rng.uniform(-0.5 / d, 0.5 / d, size=(num_nodes, d))
    contexts = np.zeros((num_nodes, d))

    tokens = walks.ravel()
    length = walks.shape[1]
    counts = np.bincount(tokens, minlength=num_nodes).astype(np.float64)
    if len(tokens) == 0:
        return np.zeros((num_nodes, d))
    draw_negatives = _inverse_cdf(_noise_cdf(counts))

    offsets = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    # A batch much larger than the vocabulary piles many accumulated updates
    # onto the same rows in one step and can diverge; cap it accordingly.
    span = max(1, min(config.batch_size, max(16, np.count_nonzero(counts))) // (2 * w))
    total_batches = config.epochs * -(-len(tokens) // span)
    batch_idx = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(tokens))
        for start in range(0, len(order), span):
            at = order[start : start + span]
            lr = config.learning_rate * (1.0 - 0.9 * batch_idx / max(total_batches - 1, 1))
            batch_idx += 1
            # a slot is in the walk iff its step stays inside [0, walk_length)
            step = (at % length)[:, None] + offsets
            mask = (step >= 0) & (step < length)
            window = tokens[np.where(mask, at[:, None] + offsets, at[:, None])]
            negatives = draw_negatives(rng.random((len(at), config.negatives)))
            outputs = np.column_stack([tokens[at], negatives])
            _window_step(inputs, contexts, window, mask, outputs, lr)
    inputs[counts == 0] = 0.0
    return inputs


def node_embeddings(graph, config):
    """Walks plus skip-gram in one call: an (num_users, dimensions) array."""
    walks = generate_walks(graph, config)
    return train_embeddings(walks, graph.num_users, config)


def cosine_similarity(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))
