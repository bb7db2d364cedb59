"""Output checks, made apart from the program.

Every check reads the files a CLI command left behind with the benchmark's
own parsers and recomputes what it can with plain numpy/scipy: nothing here
imports trustrec.  Each ``check_<command>`` returns a list of problems (empty
when the outputs hold), so a round can count the command as failed.
"""

import math
import os
import struct

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

TOL = 1e-9
LADDER = ("mf", "mf+ae", "mf+ae+trust", "mf+ae+trust+leader", "full", "mean")


class Problem(Exception):
    """A single failed output check."""


def read_checkpoint(path):
    """Arrays and integer metadata of a TRECCKP file, parsed independently."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(raw):
            raise Problem(f"{path}: truncated checkpoint")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    def u32():
        return struct.unpack("<I", take(4))[0]

    def text():
        return take(u32()).decode("utf-8")

    if take(8) != b"TRECCKP\x00" or u32() != 1:
        raise Problem(f"{path}: bad checkpoint header")
    text()  # kind
    meta = {}
    for _ in range(u32()):
        key = text()
        meta[key] = struct.unpack("<q", take(8))[0]
    arrays = {}
    for _ in range(u32()):
        name = text()
        ndim = u32()
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim))
        count = math.prod(shape)
        arrays[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
    if pos != len(raw):
        raise Problem(f"{path}: trailing bytes after the last array")
    return arrays, meta


def read_triples(path):
    """(a, b, value) columns of a comma-separated three-field text file."""
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    if table.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    if table.shape[1] != 3:
        raise Problem(f"{path}: expected three fields per line")
    return table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]


def read_id_map(path):
    """External id of each internal index, checked to be contiguous."""
    table = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    if not np.array_equal(table[:, 1], np.arange(len(table))):
        raise Problem(f"{path}: indices are not 0..n-1 in order")
    if len(np.unique(table[:, 0])) != len(table):
        raise Problem(f"{path}: an external id appears twice")
    return table[:, 0]


def read_report(path):
    """[(tag, rmse)] in the order the report lists them."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                fields = line.rstrip("\n").split("\t")
                rows.append((fields[0], float(fields[1])))
    return rows


def stage_dir(work, stage):
    with open(os.path.join(work, f"{stage}.current")) as fh:
        return os.path.join(work, f"{stage}-{fh.read().strip()}")


def to_internal(ids, id_map):
    """Internal indices of external ids through a saved id map."""
    lookup = {int(ext): idx for idx, ext in enumerate(id_map)}
    try:
        return np.array([lookup[int(x)] for x in ids], dtype=np.int64)
    except KeyError as exc:
        raise Problem(f"id {exc} missing from an id map") from None


class Prepared:
    """The prepare stage's split and trust graph in internal indices."""

    def __init__(self, work):
        self.dir = stage_dir(work, "prepare")
        self.users = read_id_map(os.path.join(self.dir, "user_map.txt"))
        self.items = read_id_map(os.path.join(self.dir, "item_map.txt"))
        self.train = self._ratings("train.txt")
        self.test = self._ratings("test.txt")
        u, v, t = read_triples(os.path.join(self.dir, "trust.txt"))
        self.trust = (to_internal(u, self.users), to_internal(v, self.users), t)

    def _ratings(self, name):
        u, i, r = read_triples(os.path.join(self.dir, name))
        return to_internal(u, self.users), to_internal(i, self.items), r


def rmse(actual, predicted):
    residual = np.asarray(actual) - np.asarray(predicted)
    return float(np.sqrt(residual @ residual / len(residual)))


def model_rmse(work, prepared, scale):
    """Held-out RMSE of the stored model: (P_u + W∘X_u)·Q_i, clipped to the scale."""
    model, _ = read_checkpoint(os.path.join(stage_dir(work, "train"), "model.ckpt"))
    emb, _ = read_checkpoint(os.path.join(stage_dir(work, "embed"), "embeddings.ckpt"))
    users, items, values = prepared.test
    P, Q, W, X = model["P"], model["Q"], model["W"], emb["vectors"]
    pred = ((P[:, users] + W[:, None] * X[users].T) * Q[:, items]).sum(axis=0)
    return rmse(values, np.clip(pred, *scale))


def mean_rmse(prepared, scale):
    """RMSE of the train-mean constant predictor, clipped to the scale."""
    mean = min(max(prepared.train[2].mean(), scale[0]), scale[1])
    return rmse(prepared.test[2], np.full(len(prepared.test[2]), mean))


def check_prepare(work, inputs):
    """The split is a partition of the input ratings; trust is carried over."""
    problems = []
    prep = Prepared(work)
    ru, ri, rv = read_triples(inputs["ratings"])
    given = {(int(u), int(i)): v for u, i, v in zip(ru, ri, rv)}
    split = {}
    for name, (u, i, v) in (("train", prep.train), ("test", prep.test)):
        for key, value in zip(zip(prep.users[u].tolist(), prep.items[i].tolist()), v):
            if key in split:
                problems.append(f"{name}: rating {key} appears in both splits")
            split[key] = value
    if split != given:
        problems.append("train + test differ from the input ratings")
    want = round(inputs["train_fraction"] * len(given))
    if len(prep.train[0]) != want:
        problems.append(f"train holds {len(prep.train[0])} ratings, expected {want}")
    tu, tv, tt = read_triples(inputs["trust"])
    stored = prep.trust
    if sorted(zip(tu.tolist(), tv.tolist(), tt.tolist())) != sorted(
        zip(prep.users[stored[0]].tolist(), prep.users[stored[1]].tolist(), stored[2].tolist())
    ):
        problems.append("prepared trust edges differ from the input trust file")
    return problems


def check_graph(work, prepared, decay, max_depth):
    """Propagated pairs, values, modularity and leaders against recomputation."""
    problems = []
    arrays, meta = read_checkpoint(os.path.join(stage_dir(work, "graph"), "graph.ckpt"))
    n = meta["num_users"]
    u, v, t = prepared.trust
    direct = sparse.csr_matrix((t, (u, v)), shape=(n, n))
    hops = csgraph.shortest_path(direct, directed=True, unweighted=True)
    np.fill_diagonal(hops, np.inf)
    reach_u, reach_v = np.nonzero(hops <= max_depth)
    pairs = arrays["pairs"]
    pu, pv, pt = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64), pairs[:, 2]
    expected = set(zip(reach_u.tolist(), reach_v.tolist()))
    stored = set(zip(pu.tolist(), pv.tolist()))
    if len(stored) != len(pu):
        problems.append("a propagated pair is stored twice")
    if stored != expected:
        problems.append(
            f"propagated pairs: {len(stored - expected)} beyond depth {max_depth}, "
            f"{len(expected - stored)} within it missing"
        )
    depth = hops[pu, pv]
    at_one = depth == 1
    direct_values = np.asarray(direct[pu[at_one], pv[at_one]]).ravel()
    if not np.array_equal(pt[at_one], direct_values):
        problems.append("a direct edge lost its stored trust value")
    deeper = depth > 1
    ceiling = decay ** (depth[deeper] - 1)
    if not np.all((pt[deeper] > 0) & (pt[deeper] <= ceiling * (1 + TOL))):
        problems.append("a propagated value lies outside (0, decay^(d-1)]")

    labels = arrays["labels"].astype(np.int64)
    sym = direct.maximum(direct.T).tocoo()
    two_w = sym.data.sum()
    strength = np.bincount(sym.row, weights=sym.data, minlength=n)
    internal = sym.data[labels[sym.row] == labels[sym.col]].sum()
    totals = np.bincount(labels, weights=strength)
    recomputed = internal / two_w - ((totals / two_w) ** 2).sum()
    if abs(recomputed - arrays["modularity"][0]) > TOL:
        problems.append(f"stored modularity {arrays['modularity'][0]:.12f} != recomputed {recomputed:.12f}")
    leaders = arrays["leaders"].astype(np.int64)
    if len(leaders) != meta["num_communities"] or not np.array_equal(
        labels[leaders], np.arange(len(leaders))
    ):
        problems.append("a leader lies outside its own community")
    return problems


def check_train(work, inputs):
    """Stored arrays are finite and the graph stage agrees with recomputation."""
    problems = []
    for stage, name in (("autoencoder", "codes"), ("graph", "graph"), ("embed", "embeddings"), ("train", "model")):
        arrays, _ = read_checkpoint(os.path.join(stage_dir(work, stage), f"{name}.ckpt"))
        for key, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                problems.append(f"{name}.ckpt: {key} holds non-finite values")
    problems += check_graph(work, Prepared(work), inputs["decay"], inputs["max_depth"])
    return problems


def check_evaluate(work, inputs, printed):
    """The report against the benchmark's own RMSEs and the ladder's shape."""
    problems = []
    report = read_report(os.path.join(work, "report.txt"))
    if report != printed:
        problems.append("printed report differs from report.txt")
    prep = Prepared(work)
    scores = dict(report)
    recomputed = model_rmse(work, prep, inputs["scale"])
    baseline = mean_rmse(prep, inputs["scale"])
    if inputs["ablate"]:
        tags = tuple(tag for tag, _ in report)
        if tags != LADDER:
            return problems + [f"ladder tags {tags}, expected {LADDER}"]
        if abs(scores["mean"] - baseline) > TOL:
            problems.append(f"mean {scores['mean']!r} != train-mean RMSE {baseline!r}")
        if not scores["full"] < scores["mf"]:
            problems.append(f"full {scores['full']:.4f} does not beat mf {scores['mf']:.4f}")
    elif [tag for tag, _ in report] != ["full"]:
        return problems + [f"report tags {[tag for tag, _ in report]}, expected ['full']"]
    if abs(scores["full"] - recomputed) > TOL:
        problems.append(f"full {scores['full']!r} != RMSE from the checkpoint {recomputed!r}")
    if not scores["full"] < baseline:
        problems.append(f"full {scores['full']:.4f} does not beat the train mean {baseline:.4f}")
    return problems
