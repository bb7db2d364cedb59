"""The combined factor model: prediction, objective, gradients, SGD training.

A rating is predicted as (P_u + W ⊙ X_u)ᵀ Q_i, with P and Q the user and
item factor matrices, X_u a fixed node embedding of the user, and W a
learned elementwise weight vector of the embedded factors.  The training
objective augments squared reconstruction error and ridge penalties with two
social terms: propagated-trust smoothing, which pulls the factors of trusting
pairs together in proportion to their trust value, and a community term that
pulls every member toward its community leader.

Factor matrices are stored factors-first: P has shape (k, num_users) and
Q has shape (k, num_items), so P[:, u] is user u's vector.
"""

from dataclasses import dataclass

import numpy as np

from .serialize import load_checkpoint, save_checkpoint

# The social operator is a dense array once its edge entries fill a third of
# the m × m matrix.  On random symmetric operators at k = 10, one thread of a
# 2-core x86 machine, a level's gather L[u] @ Pᵀ ran 1.9–4.3× faster dense
# than CSR at every density from 0.02 to 0.39 for m = 800 and 45 users a
# level, but for m = 2000 and 355 users a level dense lost up to density 0.33
# and won 1.4× at 0.39: a third is where both shapes agree.
_DENSE_SHARE = 3

# Users per column block of a dense operator's product with Pᵀ.  OpenBLAS
# may split a longer reduction across its threads, which reorders the sum.
# With OpenBLAS 0.3.31 on a 2-core x86 machine, for m from 1000 to 3000
# users and m/8 gathered rows, an unblocked L[u] @ Pᵀ read different bits
# under 1 and 2 threads at all 10 shapes tried; blocks of 256 or 384 columns
# agreed at all 10, and blocks of 512 differed at 3.
_K_BLOCK = 256


@dataclass
class ModelParams:
    """Learned parameters; all arrays are float64 and finite."""

    P: np.ndarray
    Q: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.W = np.asarray(self.W, dtype=np.float64)
        if self.P.ndim != 2 or self.Q.ndim != 2 or self.W.ndim != 1:
            raise ValueError("P and Q must be matrices, W a vector")
        if not (self.P.shape[0] == self.Q.shape[0] == self.W.shape[0]):
            raise ValueError("P, Q, W disagree on the factor dimension")

    @property
    def k(self):
        return self.P.shape[0]

    @property
    def num_users(self):
        return self.P.shape[1]

    @property
    def num_items(self):
        return self.Q.shape[1]

    def copy(self):
        return ModelParams(self.P.copy(), self.Q.copy(), self.W.copy())


@dataclass
class HyperParams:
    """Factor count, SGD step size, and the five regularization strengths."""

    k: int = 10
    learning_rate: float = 0.005
    lam_p: float = 0.1
    lam_q: float = 0.1
    lam_w: float = 0.1
    lam_t: float = 0.1
    lam_c: float = 0.1
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        for name in ("lam_p", "lam_q", "lam_w", "lam_t", "lam_c"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass
class TrainingContext:
    """Everything training needs besides the parameters themselves.

    ``embeddings`` is an (num_users, k) array of node embeddings.
    ``trust``, ``embeddings`` and ``leaders`` may each be None, which disables
    the corresponding objective term; this is how the ablation variants are
    expressed.  Building a context checks that its parts agree on the user
    count and keeps the flat arrays that training reads: the inverse rating
    counts, the trust pairs, and the community members other than the
    leaders with their ``heads``, empty where a part is None.  The pairs and
    members build ``social_operator``, through which the objective and SGD
    read the trust and leader terms; ``gradients`` reads them pair by pair.
    """

    train: "RatingMatrix"
    trust: "PropagatedTrust" = None
    embeddings: np.ndarray = None
    leaders: "LeaderTable" = None

    def __post_init__(self):
        self.validate()
        self.inv_user = 1.0 / np.maximum(self.train.user_counts(), 1)
        self.inv_item = 1.0 / np.maximum(self.train.item_counts(), 1)
        if self.trust is not None:
            self.pair_u = self.trust.truster
            self.pair_v = self.trust.trustee
            self.pair_t = self.trust.values
        else:
            self.pair_u = np.zeros(0, dtype=np.int64)
            self.pair_v = np.zeros(0, dtype=np.int64)
            self.pair_t = np.zeros(0, dtype=np.float64)
        # user_leaders[u] = -1 when u leads its own community (or there are none)
        if self.leaders is not None:
            user_leaders = self.leaders.user_leaders()
        else:
            user_leaders = np.full(self.train.num_users, -1, dtype=np.int64)
        self.members = np.flatnonzero(user_leaders >= 0)
        self.heads = user_leaders[self.members]
        # not a field, so a context made by dataclasses.replace starts empty
        self._social = {}

    def validate(self):
        m = self.train.num_users
        if self.trust is not None and self.trust.num_users != m:
            raise ValueError("trust and ratings disagree on the user count")
        if self.embeddings is not None and self.embeddings.shape[0] != m:
            raise ValueError("embeddings and ratings disagree on the user count")
        if self.leaders is not None and len(self.leaders.labels) != m:
            raise ValueError("leaders and ratings disagree on the user count")
        return self

    def features(self, k):
        """The (num_users, k) float64 embedding block; zeros without embeddings."""
        if self.embeddings is None:
            return np.zeros((self.train.num_users, k))
        if self.embeddings.shape[1] != k:
            raise ValueError("embedding dimension must equal k")
        return np.asarray(self.embeddings, dtype=np.float64)

    def social_operator(self, lam_t, lam_c):
        """L with ½·tr(P L Pᵀ) the objective's trust-plus-leader term, L Pᵀ its ∂/∂Pᵀ.

        L = λ_t·(Laplacian of the pairs as undirected edges of weight t_uv)
        + λ_c·(Laplacian of the member–leader edges), built once per context
        and weight pair and kept; None when it has no nonzero entries.  Its
        form follows its edge entries e, both directions of each edge:
        a dense (m, m) float64 array when _DENSE_SHARE·e ≥ m², where the
        entries alone take as much memory, else a scipy CSR matrix.
        ``_social_product`` makes L[u] @ Pᵀ from either form.
        """
        key = (lam_t, lam_c)
        if key not in self._social:
            m = self.train.num_users
            rows = np.concatenate([self.pair_u, self.pair_v, self.members, self.heads])
            cols = np.concatenate([self.pair_v, self.pair_u, self.heads, self.members])
            weights = np.concatenate(
                [lam_t * self.pair_t, lam_t * self.pair_t, np.full(2 * len(self.members), float(lam_c))]
            )
            entries = np.count_nonzero(weights)
            if entries == 0:
                op = None
            elif _DENSE_SHARE * entries >= m * m:
                adjacency = np.bincount(rows * m + cols, weights, minlength=m * m).reshape(m, m)
                op = -adjacency
                op[np.diag_indices(m)] += adjacency.sum(axis=1)
            else:
                from scipy import sparse
                adjacency = sparse.csr_matrix((weights, (rows, cols)), shape=(m, m))
                op = (sparse.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency).tocsr()
                op.eliminate_zeros()
            self._social[key] = op
        return self._social[key]


def _social_product(op, Pt, rows=None):
    """op[rows] @ Pt for a social operator, all rows when ``rows`` is None.

    A dense operator's product is summed over column blocks of _K_BLOCK
    users, in a fixed order, so that its bits do not depend on the BLAS
    thread count; a CSR operator's is scipy's product.
    """
    part = op if rows is None else op[rows]
    if not isinstance(op, np.ndarray):
        return part @ Pt
    out = part[:, :_K_BLOCK] @ Pt[:_K_BLOCK]
    for s in range(_K_BLOCK, len(Pt), _K_BLOCK):
        out += part[:, s : s + _K_BLOCK] @ Pt[s : s + _K_BLOCK]
    return out


def predict(params, embeddings, users, items):
    """Raw predicted ratings (P_u + W ⊙ X_u)ᵀ Q_i for parallel index arrays.

    Not clamped to the scale: clamping belongs to evaluation, and training
    needs the raw value.  ``embeddings`` is an (num_users, k) array or None;
    with None the prediction reduces to P_uᵀQ_i.  A user or item outside the
    parameters' shapes raises IndexError.
    """
    users, items = np.asarray(users, dtype=np.intp), np.asarray(items, dtype=np.intp)
    for index, bound, what in ((users, params.num_users, "user"), (items, params.num_items, "item")):
        if index.size and (index.min() < 0 or index.max() >= bound):
            raise IndexError(f"{what} index out of range [0, {bound})")
    a = params.P[:, users]
    if embeddings is not None:
        a = a + params.W[:, None] * embeddings[users].T
    return (a * params.Q[:, items]).sum(axis=0)


def objective(params, ctx, hp):
    """Full training objective over the context's train split.

    Squared-error term plus ridge penalties on P, Q, W, and the trust and
    community-leader terms as one Laplacian quadratic form ½·tr(P L Pᵀ), with
    L the context's social operator: Σ over directed trust pairs of
    ½λ_t·t_uv‖P_u − P_v‖² plus Σ over non-leader members of ½λ_c‖P_u − P_lead‖².
    """
    train = ctx.train
    err = predict(params, ctx.embeddings, train.users, train.items) - train.values
    total = 0.5 * (err * err).sum()
    total += 0.5 * hp.lam_p * (params.P * params.P).sum()
    total += 0.5 * hp.lam_q * (params.Q * params.Q).sum()
    total += 0.5 * hp.lam_w * (params.W * params.W).sum()
    social = ctx.social_operator(hp.lam_t, hp.lam_c)
    if social is not None:
        Pt = np.ascontiguousarray(params.P.T)
        total += 0.5 * (Pt * _social_product(social, Pt)).sum()
    return float(total)


def gradients(params, ctx, hp):
    """Exact analytic gradient of the objective, as a ModelParams-shaped triple."""
    train = ctx.train
    users, items = train.users, train.items
    Xg = ctx.features(hp.k)[users].T
    a = params.P[:, users] + params.W[:, None] * Xg
    err = (a * params.Q[:, items]).sum(axis=0) - train.values

    gP = np.zeros_like(params.P)
    np.add.at(gP, (slice(None), users), err * params.Q[:, items])
    gP += hp.lam_p * params.P

    gQ = np.zeros_like(params.Q)
    np.add.at(gQ, (slice(None), items), err * a)
    gQ += hp.lam_q * params.Q

    gW = (Xg * params.Q[:, items]) @ err + hp.lam_w * params.W

    # trust pairs pull with weight λ_t·t, members toward their leaders with λ_c
    for weight, near, far in ((hp.lam_t * ctx.pair_t, ctx.pair_u, ctx.pair_v), (hp.lam_c, ctx.members, ctx.heads)):
        if len(near):
            diff = weight * (params.P[:, near] - params.P[:, far])
            pull = np.zeros_like(params.P)
            np.add.at(pull, (slice(None), near), diff)
            np.add.at(pull, (slice(None), far), -diff)
            gP += pull
    return gP, gQ, gW


def conflict_free_levels(users, items):
    """Positions of a rating sequence grouped into conflict-free levels.

    Rating j (``users[j]``, ``items[j]``) goes one level past the last level
    of its user and of its item: no level repeats a user or an item, and
    each user's and item's ratings keep their sequence order across levels.
    """
    if len(users) == 0:
        return []
    last_user = [0] * (int(users.max()) + 1)
    last_item = [0] * (int(items.max()) + 1)
    level = []
    for u, i in zip(users.tolist(), items.tolist()):
        here = max(last_user[u], last_item[i]) + 1
        last_user[u] = last_item[i] = here
        level.append(here)
    level = np.array(level)
    by_level = np.argsort(level, kind="stable")
    return np.split(by_level, np.flatnonzero(np.diff(level[by_level])) + 1)


def sgd_epoch(params, ctx, hp, rng=None):
    """One SGD pass in a seeded shuffled order; returns new params.

    Each conflict-free level of the order is one vectorized step that moves
    its ratings' P_u and Q_i by their gradients at the level-start values;
    trust/leader partners come from one product L[u] @ Pᵀ with the social
    operator L, made as ``objective`` makes L Pᵀ.  The Q step is guarded: a rating's error e enters Q_i's
    gradient as e / max(1, lr·‖a‖²), a = P_u + W ⊙ X_u, so a step never runs
    past the squared error's stability bound lr·‖a‖² < 2, as it can once a
    level's W step has grown a, and is the plain step while lr·‖a‖² ≤ 1.
    Without trust, leaders or embeddings and with every lr·‖a‖² ≤ 1 an epoch
    is exactly the per-rating pass; otherwise partners and W are read at
    level start.  The shared W takes an implicit step per level of B
    ratings, stable at any lr·‖ZᵀZ‖:
    ((1 + lr·B·λ_w/N)·I + lr·ZᵀZ) W' = W − lr·Zᵀ(e − ZW),
    with Z's rows X_u ⊙ Q_i.  Regularizers are spread across visits so an
    epoch sums to the full objective's: P-ridge, trust and leader terms of
    user u scale by 1/|ratings of u|, the Q-ridge by 1/|ratings of i|, the
    W-ridge by 1/N.  Without embeddings Z is zero and W takes no step:
    ``train`` starts W at zero, where that step would leave it.  Non-finite
    values give NaN or inf, never an error.
    """
    X = ctx.features(hp.k)
    rng = rng if rng is not None else np.random.default_rng(hp.seed)
    users, items, values = ctx.train.users, ctx.train.items, ctx.train.values
    order = rng.permutation(len(values))
    # row-major copies: one user's or item's factors per contiguous row
    Pt, Qt, W = params.P.T.copy(), params.Q.T.copy(), params.W.copy()
    social = ctx.social_operator(hp.lam_t, hp.lam_c)
    lr = hp.learning_rate
    for level in conflict_free_levels(users[order], items[order]):
        s = order[level]
        u, i = users[s], items[s]
        pu, qi, xu = Pt[u], Qt[i], X[u]
        a = pu + W * xu
        e = np.einsum("bk,bk->b", a, qi) - values[s]
        gp = e[:, None] * qi + (hp.lam_p * ctx.inv_user[u])[:, None] * pu
        if social is not None:
            gp += ctx.inv_user[u, None] * _social_product(social, Pt, u)
        damped = e / np.maximum(1.0, lr * np.einsum("bk,bk->b", a, a))
        gq = damped[:, None] * a + (hp.lam_q * ctx.inv_item[i])[:, None] * qi
        if ctx.embeddings is not None:
            z = xu * qi
            lhs = (1.0 + lr * len(s) * hp.lam_w / len(values)) * np.eye(hp.k) + lr * (z.T @ z)
            try:
                W = np.linalg.solve(lhs, W - lr * (z.T @ (e - z @ W)))
            except np.linalg.LinAlgError:
                W = np.full(hp.k, np.nan)  # the system is positive definite when finite
        Pt[u] = pu - lr * gp
        Qt[i] = qi - lr * gq
    return ModelParams(np.ascontiguousarray(Pt.T), np.ascontiguousarray(Qt.T), W)


def init_params(num_users, num_items, hp, rng=None):
    """Random small-normal initialization for P and Q; W starts at zero."""
    rng = rng if rng is not None else np.random.default_rng(hp.seed)
    return ModelParams(
        rng.normal(0.0, 0.1, size=(hp.k, num_users)),
        rng.normal(0.0, 0.1, size=(hp.k, num_items)),
        np.zeros(hp.k),
    )


def train(ctx, hp, init_P, init_Q):
    """Run SGD epochs from the given initialization, keeping the best params.

    ``init_P``/``init_Q`` are (k, num_users) and (k, num_items) matrices,
    typically autoencoder codes; W always starts at zero.  The full objective
    is recorded after every epoch, and training stops early once it has risen
    five epochs in a row.  Returns (best params, objective history).
    """
    init_P = np.asarray(init_P, dtype=np.float64)
    init_Q = np.asarray(init_Q, dtype=np.float64)
    m, n = ctx.train.num_users, ctx.train.num_items
    if init_P.shape != (hp.k, m):
        raise ValueError(f"init_P shape {init_P.shape}, expected {(hp.k, m)}")
    if init_Q.shape != (hp.k, n):
        raise ValueError(f"init_Q shape {init_Q.shape}, expected {(hp.k, n)}")

    ctx.features(hp.k)  # an embedding width other than k fails here, before any epoch
    params = ModelParams(init_P.copy(), init_Q.copy(), np.zeros(hp.k))
    rng = np.random.default_rng(hp.seed)
    history = []
    best = params.copy()
    best_value = objective(params, ctx, hp)
    rising = 0
    for _ in range(hp.epochs):
        params = sgd_epoch(params, ctx, hp, rng)
        value = objective(params, ctx, hp)
        if history and value > history[-1]:
            rising += 1
        else:
            rising = 0
        history.append(value)
        if value < best_value:
            best_value = value
            best = params.copy()
        if rising >= 5:
            break
    return best, history


def save_params(params, path):
    save_checkpoint(
        path,
        "model",
        {"P": params.P, "Q": params.Q, "W": params.W},
        {"k": params.k, "m": params.num_users, "n": params.num_items},
    )


def load_params(path):
    _, arrays, _ = load_checkpoint(path, expect_kind="model")
    return ModelParams(arrays["P"], arrays["Q"], arrays["W"])
