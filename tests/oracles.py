"""Independent reference implementations the suite checks the package against.

Everything here is deliberately naive: dense matrices, exhaustive enumeration,
direct formula transcription.  Slow is fine, these only ever see small inputs.
"""

import numpy as np
from scipy import sparse

from trustrec.autoencoder import init_autoencoder, selu, selu_grad
from trustrec.data import RatingMatrix
from trustrec.embed import step_distribution
from trustrec.graph import PropagatedTrust


def central_difference(fn, x, step=1e-5):
    """Numerical gradient of a scalar function, one coordinate at a time.

    Mutates a private C-ordered copy of ``x`` in place between evaluations,
    so ``fn`` must read its argument fresh on every call.  The copy is
    C-ordered whatever the input's layout, so that its ``ravel()`` is a view
    and the perturbations reach ``fn``.
    """
    x = np.array(x, dtype=float, order="C")
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        hi = fn(x)
        flat[j] = orig - step
        lo = fn(x)
        flat[j] = orig
        gflat[j] = (hi - lo) / (2.0 * step)
    return grad


def gradient_gap(analytic, numeric):
    """Worst-entry discrepancy normalized by the larger gradient magnitude."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(1.0, np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def set_partitions(n):
    """Every partition of {0..n-1} as a label list, via restricted growth strings."""
    if n == 0:
        yield []
        return
    labels = [0] * n

    def descend(pos, used):
        if pos == n:
            yield list(labels)
            return
        for c in range(used + 1):
            labels[pos] = c
            yield from descend(pos + 1, max(used, c + 1))

    yield from descend(1, 1)


def best_partition_value(n, value_fn):
    """Maximum of ``value_fn(labels)`` over all partitions of n nodes."""
    best = -np.inf
    for labels in set_partitions(n):
        best = max(best, value_fn(np.asarray(labels)))
    return best


def single_move_optimal(labels, value_fn, tol=1e-12):
    """True when no relocation of one node to any community (or to a fresh
    singleton) raises ``value_fn``."""
    labels = np.asarray(labels)
    base = value_fn(labels)
    targets = set(labels.tolist())
    targets.add(int(labels.max()) + 1)
    for v in range(len(labels)):
        for c in targets:
            if c == labels[v]:
                continue
            trial = labels.copy()
            trial[v] = c
            if value_fn(trial) > base + tol:
                return False
    return True


def dense_pagerank(adjacency, damping=0.85, tol=1e-13, max_iter=100000):
    """Power iteration on the fully materialized Google matrix."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    row_sums = a.sum(axis=1)
    transition = np.empty_like(a)
    for i in range(n):
        if row_sums[i] == 0:
            transition[i] = 1.0 / n
        else:
            transition[i] = a[i] / row_sums[i]
    google = damping * transition + (1.0 - damping) / n
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = x @ google
        if np.abs(nxt - x).sum() < tol:
            return nxt / nxt.sum()
        x = nxt
    raise RuntimeError("oracle pagerank failed to converge")


def exhaustive_propagation(out_edges, num_users, decay, max_depth):
    """Propagated trust by enumerating every simple directed path.

    For each ordered pair the shortest path length wins; among paths of that
    length the largest trust product is kept, then scaled by decay^(d-1).
    Exponential, so only usable on tiny graphs.
    """
    results = {}
    for source in range(num_users):
        found = {}  # dest -> (distance, best product)

        def wander(node, depth, product, seen):
            if depth >= max_depth:
                return
            for dest, t in out_edges.get(node, {}).items():
                if dest in seen:
                    continue
                value = product * t
                have = found.get(dest)
                if have is None or depth + 1 < have[0]:
                    found[dest] = (depth + 1, value)
                elif depth + 1 == have[0] and value > have[1]:
                    found[dest] = (depth + 1, value)
                wander(dest, depth + 1, value, seen | {dest})

        wander(source, 0, 1.0, {source})
        if found:
            results[source] = {
                dest: product * decay ** (dist - 1) for dest, (dist, product) in found.items()
            }
    return results


def dict_propagate_trust(graph, decay=0.8, max_depth=3):
    """The per-source dict BFS that propagate_trust's array joins replaced.

    Kept verbatim as the reference for their values and pair order.  The
    value for a pair at shortest-path distance d is the largest product of
    edge trusts over any shortest path, scaled by decay^(d-1); direct edges
    keep their stored value.  Pairs farther than ``max_depth`` hops (or
    unreachable) are absent.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    indptr = graph.indptr.tolist()
    edges = list(zip(graph.indices.tolist(), graph.data.tolist()))
    adjacent = [edges[lo:hi] for lo, hi in zip(indptr, indptr[1:])]  # (trustee, value) per row
    truster, trustee, values = [], [], []
    for source in range(graph.num_users):
        if not adjacent[source]:
            continue
        # best path product per node at the current BFS level
        frontier = dict(adjacent[source])
        reached = {source}
        row = {}
        for depth in range(1, max_depth + 1):
            scale = decay ** (depth - 1)
            reached.update(frontier)
            for v, product in frontier.items():
                row[v] = product * scale
            if depth == max_depth:
                break
            nxt = {}
            for v, product in frontier.items():
                for w, t in adjacent[v]:
                    if w in reached:
                        continue
                    candidate = product * t
                    if candidate > nxt.get(w, 0.0):
                        nxt[w] = candidate
            if not nxt:
                break
            frontier = nxt
        truster.extend([source] * len(row))
        trustee.extend(row)
        values.extend(row.values())
    return PropagatedTrust(truster, trustee, values, graph.num_users)


def dict_rating_matrix(num_users, num_items, users, items, values, r_min=1.0, r_max=5.0):
    """The dict fill and key sort that RatingMatrix.from_triples replaced.

    Kept verbatim as the reference for its entry order and its rule that a
    repeated (user, item) pair keeps its last value.
    """
    entries = {}
    for u, i, value in zip(users, items, values):
        entries[(u, i)] = value
    if entries:
        keys = np.array(sorted(entries), dtype=np.int64)
        users, items = keys[:, 0], keys[:, 1]
        values = np.array([entries[(u, i)] for u, i in keys], dtype=np.float64)
    else:
        users = items = np.zeros(0, dtype=np.int64)
        values = np.zeros(0, dtype=np.float64)
    return RatingMatrix(num_users, num_items, users, items, values, r_min, r_max)


class DictTrustGraph:
    """The dict-of-dicts trust graph that TrustGraph's CSR arrays replaced.

    Kept verbatim as the reference for their semantics: one dict per
    truster in order of first appearance, trustees in order of first
    appearance, each with the value it was given last.
    """

    def __init__(self, num_users, self_loops_skipped=0):
        self.num_users = num_users
        self.out_edges = {}
        self.self_loops_skipped = self_loops_skipped
        self._num_edges = 0

    def add_edge(self, truster, trustee, value=1.0):
        if truster == trustee:
            raise ValueError("self-loops are not allowed")
        if not 0.0 < value <= 1.0:
            raise ValueError(f"trust value {value} outside (0, 1]")
        if truster >= self.num_users or trustee >= self.num_users or truster < 0 or trustee < 0:
            raise ValueError("endpoint index out of range")
        nbrs = self.out_edges.setdefault(truster, {})
        if trustee not in nbrs:
            self._num_edges += 1
        nbrs[trustee] = value

    @classmethod
    def from_edges(cls, num_users, edges, self_loops_skipped=0):
        """Graph of the (truster, trustee, value) triples, added in order."""
        graph = cls(num_users, self_loops_skipped)
        for u, v, t in edges:
            graph.add_edge(int(u), int(v), t)
        return graph

    @property
    def num_edges(self):
        return self._num_edges

    def edges(self):
        for u, nbrs in self.out_edges.items():
            for v, t in nbrs.items():
                yield u, v, t

    def degrees(self):
        """Out-degree plus in-degree counts per user, shape (num_users,)."""
        deg = np.zeros(self.num_users, dtype=np.int64)
        for u, v, _ in self.edges():
            deg[u] += 1
            deg[v] += 1
        return deg


def plain_mf_objective(P, Q, users, items, values, lam_p, lam_q):
    """Squared-error matrix-factorization loss written straight from its formula."""
    total = 0.0
    for u, i, r in zip(users, items, values):
        total += 0.5 * (r - float(P[:, u] @ Q[:, i])) ** 2
    total += 0.5 * lam_p * float((P * P).sum())
    total += 0.5 * lam_q * float((Q * Q).sum())
    return total


def reference_walks(adjacency, config, nodes=None):
    """Biased walks drawn one node and one step at a time.

    Each start node with a neighbor gets ``num_walks`` walks from its own
    ``default_rng([seed, node])``, one uniform per step taken, each step
    sampled by a cumulative-sum search over ``step_distribution``.  A walk
    stops early at a node with no out-edges.
    """
    adjacency = sparse.csr_matrix(adjacency)
    if nodes is None:
        nodes = range(adjacency.shape[0])
    degrees = np.diff(adjacency.indptr)
    walks = []
    for node in nodes:
        if degrees[node] == 0:
            continue
        rng = np.random.default_rng([config.seed, node])
        for _ in range(config.num_walks):
            walk = [node]
            prev, cur = None, node
            for _ in range(config.walk_length - 1):
                candidates, probs = step_distribution(adjacency, prev, cur, config.p, config.q)
                if len(candidates) == 0:
                    break
                pick = np.searchsorted(np.cumsum(probs), rng.random(), side="right")
                prev, cur = cur, int(candidates[pick])
                walk.append(cur)
            walks.append(walk)
    return walks


def walk_pairs(walks, window):
    """(center, context) pairs of every walk under a fixed window, both ways.

    One per ordered pair of positions at most ``window`` apart in the same
    walk: the pair multiset one skip-gram epoch must train.
    """
    centers, contexts = [], []
    for walk in walks:
        arr = np.asarray(walk)
        n = len(arr)
        for offset in range(1, window + 1):
            if n <= offset:
                break
            centers.append(arr[:-offset])
            contexts.append(arr[offset:])
            centers.append(arr[offset:])
            contexts.append(arr[:-offset])
    if not centers:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


def reference_window_step(inputs, contexts, window, mask, outputs, lr):
    """One window-batched SGNS step, one (position, slot, output) at a time.

    Each unmasked input node ``window[t, j]`` meets each output
    ``outputs[t, k]`` with label 1 for k = 0 and 0 otherwise; the logistic
    is taken from its textbook form.  Every gradient reads the tables as they
    were before the step.  Returns the updated (inputs, contexts) copies.
    """
    new_inputs, new_contexts = inputs.copy(), contexts.copy()
    for t in range(window.shape[0]):
        for j in range(window.shape[1]):
            if not mask[t, j]:
                continue
            a = window[t, j]
            for k in range(outputs.shape[1]):
                b = outputs[t, k]
                score = sum(inputs[a, i] * contexts[b, i] for i in range(inputs.shape[1]))
                g = 1.0 / (1.0 + np.exp(-score)) - (1.0 if k == 0 else 0.0)
                new_inputs[a] -= lr * g * contexts[b]
                new_contexts[b] -= lr * g * inputs[a]
    return new_inputs, new_contexts


def dense_forward(model, x_masked):
    """The autoencoder stack evaluated at every position of dense inputs.

    Returns (activations, pre_activations); activations[0] is the input and
    activations[-1] the full-width reconstruction.
    """
    acts = [x_masked]
    pres = []
    h = x_masked
    for w, b in zip(model.weights, model.biases):
        z = h @ w + b
        h = selu(z)
        pres.append(z)
        acts.append(h)
    return acts, pres


def dense_loss_and_gradients(model, targets, mask):
    """Masked reconstruction loss and gradients through full-width layers.

    Inputs are ``targets * mask``; every layer, the visible-width ones
    included, is a dense product, and the loss is masked afterwards.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    mask = np.atleast_2d(np.asarray(mask, dtype=np.float64))
    acts, pres = dense_forward(model, targets * mask)
    observed = mask.sum()
    w_grads = [np.zeros_like(w) for w in model.weights]
    b_grads = [np.zeros_like(b) for b in model.biases]
    if observed == 0:
        return 0.0, w_grads, b_grads

    diff = (acts[-1] - targets) * mask
    loss = float((diff * diff).sum() / observed)
    delta = (2.0 / observed) * diff * selu_grad(pres[-1])
    for layer in reversed(range(len(model.weights))):
        w_grads[layer] = acts[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * selu_grad(pres[layer - 1])
    return loss, w_grads, b_grads


def dense_train_codes(targets, mask, config):
    """Mini-batch SGD through ``dense_loss_and_gradients``; (model, codes).

    Same generator use as ``train_autoencoder``: one seeded stream that draws
    the initial weights, then one row permutation per epoch.
    """
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    model = init_autoencoder(targets.shape[1], config, rng)
    n = targets.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            _, w_grads, b_grads = dense_loss_and_gradients(model, targets[rows], mask[rows])
            for w, b, gw, gb in zip(model.weights, model.biases, w_grads, b_grads):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
    acts, _ = dense_forward(model, targets * mask)
    return model, acts[model.code_layer]


def reference_sgd_epoch(params, ctx, hp, rng=None):
    """Per-rating SGD, one rating at a time in a seeded shuffled order.

    Each visit updates P_u, Q_i and W from the gradients at the current
    values, with the P-ridge, trust and leader terms of user u scaled by
    1/|ratings of u|, the Q-ridge of item i by 1/|ratings of i| and the
    W-ridge by 1/N.  Draws one ``rng.permutation(N)``, as ``sgd_epoch`` does.
    """
    ctx.validate()
    rng = rng if rng is not None else np.random.default_rng(hp.seed)
    train = ctx.train
    m = train.num_users
    users, items, values = train.users, train.items, train.values
    inv_u = 1.0 / np.maximum(train.user_counts(), 1)
    inv_i = 1.0 / np.maximum(train.item_counts(), 1)
    X = ctx.embeddings if ctx.embeddings is not None else np.zeros((m, hp.k))

    # trust partners of u over both directions, each with its pair's value
    partners = [[] for _ in range(m)]
    if ctx.trust is not None:
        for a, b, t in zip(ctx.trust.truster.tolist(), ctx.trust.trustee.tolist(), ctx.trust.values.tolist()):
            partners[a].append((b, t))
            partners[b].append((a, t))
    leaders = ctx.leaders.user_leaders() if ctx.leaders is not None else np.full(m, -1)
    followers = [[] for _ in range(m)]
    for member, head in enumerate(leaders):
        if head >= 0:
            followers[head].append(member)

    out = params.copy()
    P, Q, W = out.P, out.Q, out.W
    lr = hp.learning_rate
    lam_w_n = hp.lam_w / len(values)
    for s in rng.permutation(len(values)):
        u, i, r = users[s], items[s], values[s]
        pu = P[:, u]
        qi = Q[:, i]
        xu = X[u]
        wxu = W * xu
        a = pu + wxu
        e = a @ qi - r
        cu = inv_u[u]

        gp = e * qi + (hp.lam_p * cu) * pu
        if partners[u]:
            idx = [v for v, _ in partners[u]]
            vals = np.array([t for _, t in partners[u]])
            gp += (hp.lam_t * cu) * (vals.sum() * pu - P[:, idx] @ vals)
        head = leaders[u]
        if head >= 0:
            gp += (hp.lam_c * cu) * (pu - P[:, head])
        if followers[u]:
            gp += (hp.lam_c * cu) * (len(followers[u]) * pu - P[:, followers[u]].sum(axis=1))

        gq = e * a + (hp.lam_q * inv_i[i]) * qi
        gw = e * (xu * qi) + lam_w_n * W

        pu -= lr * gp
        qi -= lr * gq
        W -= lr * gw
    return out
