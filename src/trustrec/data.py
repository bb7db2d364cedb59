"""Rating and trust-network ingestion, id mapping, and train/test splitting.

File formats are plain text, one record per line, comma- or
whitespace-separated.  Lines starting with ``#`` are comments.

    ratings file:  user_id, item_id, rating
    trust file:    truster_id, trustee_id[, value]     (value defaults to 1.0)
    id-map file:   external_id, internal_index

In memory a RatingMatrix holds (user, item, value) columns sorted by (user,
item), and a TrustGraph holds its edges as CSR rows, one per truster.

``save_prepared`` and ``load_prepared`` keep a split in those files plus ``split.ckpt``.
"""

import os
from dataclasses import dataclass, replace

import numpy as np


class DataFormatError(ValueError):
    """A malformed or out-of-range input line; carries file path and line number (None if unknown)."""

    def __init__(self, path, line_no, message):
        super().__init__(str(path), line_no, message)  # all three, so that pickle can rebuild it
        self.path = str(path)
        self.line_no = line_no

    def __str__(self):
        path, line_no, message = self.args
        return f"{path}: {message}" if line_no is None else f"{path}:{line_no}: {message}"


def decode_error(path, exc):
    """DataFormatError at the line of text file ``path`` that failed to decode with ``exc``.

    Text mode decodes ahead of the line it yields, so ``exc`` does not tell
    which line holds the bad byte; on this error path only, the file is read
    again as bytes, line by line, to find it.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # the line ends text mode splits at
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw.decode(exc.encoding)
        except UnicodeDecodeError as bad:
            return DataFormatError(path, line_no, str(bad))
    return DataFormatError(path, None, f"not {exc.encoding} text")


class IdMap:
    """Bidirectional map between external integer ids and dense zero-based indices.

    Indices are assigned in order of first appearance, so re-reading the same
    file always produces the same mapping.
    """

    def __init__(self):
        self._index = {}
        self._ids = []

    def __len__(self):
        return len(self._ids)

    def add(self, external_id):
        """Return the index for ``external_id``, allocating a new one if unseen."""
        idx = self._index.get(external_id)
        if idx is None:
            idx = len(self._ids)
            self._index[external_id] = idx
            self._ids.append(external_id)
        return idx

    def index_of(self, external_id):
        return self._index[external_id]

    def id_of(self, index):
        return self._ids[index]

    def save(self, path):
        with open(path, "w") as fh:
            for idx, ext in enumerate(self._ids):
                fh.write(f"{ext},{idx}\n")

    @classmethod
    def load(cls, path):
        mapping = cls()
        for line_no, fields in _records(path):
            if len(fields) != 2:
                raise DataFormatError(path, line_no, "expected 'external_id,internal_index'")
            ext, idx = int(fields[0]), int(fields[1])
            if idx != len(mapping._ids):
                raise DataFormatError(path, line_no, f"non-contiguous index {idx}")
            mapping.add(ext)
        return mapping


@dataclass
class RatingMatrix:
    """Sparse user x item rating matrix with an implicit observation mask.

    Entries are stored as three parallel arrays sorted by (user, item); a pair
    appears at most once, and a stored pair is exactly an observed rating.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    r_min: float = 1.0
    r_max: float = 5.0

    def __len__(self):
        return len(self.values)

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)

    @classmethod
    def from_triples(cls, num_users, num_items, users, items, values, r_min=1.0, r_max=5.0):
        """Matrix of the (user, item, value) triples, sorted by (user, item).

        Items must lie in [0, num_items).  A repeated pair keeps the value it
        was given last: one unique pass over the reversed keys finds it.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        keys, last = np.unique((users * num_items + items)[::-1], return_index=True)
        return cls(num_users, num_items, keys // num_items, keys % num_items, values[::-1][last], r_min, r_max)

    def validate(self):
        if len(self.users) != len(self.items) or len(self.users) != len(self.values):
            raise ValueError("entry arrays must have equal length")
        if len(self.users):
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item index out of range")
            if self.values.min() < self.r_min or self.values.max() > self.r_max:
                raise ValueError("rating outside scale")
            pairs = self.users * self.num_items + self.items
            if len(np.unique(pairs)) != len(pairs):
                raise ValueError("duplicate (user, item) pair")
        return self

    def with_num_users(self, num_users):
        """Copy with a widened user index space (entries unchanged)."""
        if num_users < self.num_users:
            raise ValueError("cannot shrink the user space")
        return replace(self, num_users=num_users)

    def user_counts(self):
        """Number of stored ratings per user, shape (num_users,)."""
        return np.bincount(self.users, minlength=self.num_users)

    def item_counts(self):
        return np.bincount(self.items, minlength=self.num_items)


@dataclass
class SplitSpec:
    """Deterministic train/test partition parameters."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


class TrustGraph:
    """Directed user-to-user trust edges with values in (0, 1], as CSR arrays.

    Row u of ``indptr``/``indices``/``data`` holds user u's trustees in the
    order their edges first appeared, each with the value it was given last.
    ``self_loops_skipped`` counts input lines dropped because truster == trustee.
    """

    def __init__(self, num_users, truster=(), trustee=(), values=(), self_loops_skipped=0):
        truster = np.asarray(truster, dtype=np.int64)
        trustee = np.asarray(trustee, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        _check_edges(num_users, truster, trustee, values)
        self.num_users = num_users
        self.self_loops_skipped = self_loops_skipped
        self.indptr, self.indices, self.data = _csr_rows(num_users, truster, trustee, values)

    @classmethod
    def from_edges(cls, num_users, edges, self_loops_skipped=0):
        """Graph of the (truster, trustee, value) triples, in the order given."""
        columns = tuple(zip(*edges)) or ((), (), ())
        return cls(num_users, *columns, self_loops_skipped=self_loops_skipped)

    @property
    def num_edges(self):
        return len(self.indices)

    def rows(self):
        """Truster of every stored edge, aligned with ``indices`` and ``data``."""
        return np.repeat(np.arange(self.num_users, dtype=np.int64), np.diff(self.indptr))

    def edges(self):
        return zip(self.rows().tolist(), self.indices.tolist(), self.data.tolist())

    def degrees(self):
        """Out-degree plus in-degree counts per user, shape (num_users,)."""
        return np.diff(self.indptr) + np.bincount(self.indices, minlength=self.num_users)


def _check_edges(num_users, truster, trustee, values):
    """Raise for the first invalid edge: self-loop, value outside (0, 1], or bad endpoint."""
    if not len(truster) == len(trustee) == len(values):
        raise ValueError("edge arrays must have equal length")
    loop = truster == trustee
    bad_value = ~((values > 0.0) & (values <= 1.0))
    bad_end = (np.minimum(truster, trustee) < 0) | (np.maximum(truster, trustee) >= num_users)
    bad = np.flatnonzero(loop | bad_value | bad_end)
    if len(bad):
        j = bad[0]
        if loop[j]:
            raise ValueError("self-loops are not allowed")
        if bad_value[j]:
            raise ValueError(f"trust value {float(values[j])} outside (0, 1]")
        raise ValueError("endpoint index out of range")


def _csr_rows(num_users, truster, trustee, values):
    """Distinct edges as CSR rows by truster, in first-appearance order, with last values."""
    keys = truster * num_users + trustee
    _, first = np.unique(keys, return_index=True)
    _, from_end = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - from_end
    order = np.lexsort((first, truster[first]))
    first, last = first[order], last[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(truster[first], minlength=num_users))])
    return indptr, trustee[first], values[last]


def _records(path):
    """Yield (line_no, fields) for every non-comment, non-blank line."""
    with open(path) as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                yield line_no, line.replace(",", " ").split()
        except UnicodeDecodeError as exc:
            raise decode_error(path, exc) from None


def load_ratings(path, scale=(1.0, 5.0), user_map=None, item_map=None):
    """Read a ratings file into a RatingMatrix with contiguous zero-based indices.

    Duplicate (user, item) lines are resolved by keeping the last one.  When
    id maps are supplied they are extended in place, which keeps the index
    space shared with a trust file loaded through the same user map.
    """
    r_min, r_max = float(scale[0]), float(scale[1])
    user_map = IdMap() if user_map is None else user_map
    item_map = IdMap() if item_map is None else item_map
    users, items, values = [], [], []
    for line_no, fields in _records(path):
        if len(fields) != 3:
            raise DataFormatError(path, line_no, f"expected 'user,item,rating', got {len(fields)} fields")
        try:
            ext_u, ext_i, value = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise DataFormatError(path, line_no, str(exc)) from None
        if not r_min <= value <= r_max:
            raise DataFormatError(path, line_no, f"rating {value} outside [{r_min}, {r_max}]")
        users.append(user_map.add(ext_u))
        items.append(item_map.add(ext_i))
        values.append(value)
    return RatingMatrix.from_triples(len(user_map), len(item_map), users, items, values, r_min, r_max)


def save_ratings(matrix, path, user_map, item_map):
    """Write a RatingMatrix back to the external text format."""
    with open(path, "w") as fh:
        for u, i, v in zip(matrix.users, matrix.items, matrix.values):
            fh.write(f"{user_map.id_of(u)},{item_map.id_of(i)},{float(v)!r}\n")


def load_trust(path, user_map):
    """Read a trust file into a TrustGraph over the user map's index space.

    Users that appear only in the trust file are appended to ``user_map``.
    Self-loop lines are skipped and counted, not errors.
    """
    parsed = []
    skipped = 0
    for line_no, fields in _records(path):
        if len(fields) not in (2, 3):
            raise DataFormatError(path, line_no, f"expected 'truster,trustee[,value]', got {len(fields)} fields")
        try:
            ext_u, ext_v = int(fields[0]), int(fields[1])
            value = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError as exc:
            raise DataFormatError(path, line_no, str(exc)) from None
        if ext_u == ext_v:
            skipped += 1
            continue
        if not 0.0 < value <= 1.0:
            raise DataFormatError(path, line_no, f"trust value {value} outside (0, 1]")
        parsed.append((user_map.add(ext_u), user_map.add(ext_v), value))
    return TrustGraph.from_edges(len(user_map), parsed, skipped)


def save_trust(graph, path, user_map):
    """Write a TrustGraph back to the external text format."""
    with open(path, "w") as fh:
        for u, v, t in graph.edges():
            fh.write(f"{user_map.id_of(u)},{user_map.id_of(v)},{float(t)!r}\n")


# The two functions below import serialize when called: perfbench imports this module
# into the process that times the commands, and each command's peak-RSS reading starts
# from that process's high-water mark, so importing it there loads no other trustrec module.
def save_prepared(folder, train, test, trust, user_map, item_map):
    """Write the split's text files into ``folder``, then ``split.ckpt``: the same data in
    internal indices, trust as the graph's CSR rows in order, so later stages parse no text."""
    from .serialize import save_checkpoint

    save_ratings(train, os.path.join(folder, "train.txt"), user_map, item_map)
    save_ratings(test, os.path.join(folder, "test.txt"), user_map, item_map)
    user_map.save(os.path.join(folder, "user_map.txt"))
    item_map.save(os.path.join(folder, "item_map.txt"))
    save_trust(trust, os.path.join(folder, "trust.txt"), user_map)
    arrays = {name: np.column_stack([s.users, s.items, s.values]) for name, s in (("train", train), ("test", test))}
    arrays["trust"] = np.column_stack([trust.rows(), trust.indices, trust.data])
    meta = {"num_users": train.num_users, "num_items": train.num_items}
    save_checkpoint(os.path.join(folder, "split.ckpt"), "split", arrays, meta)


def load_prepared(folder, scale):
    """(train, test, trust) from ``folder/split.ckpt``, each equal to a reparse of the text files."""
    from .serialize import load_checkpoint

    _, arrays, meta = load_checkpoint(os.path.join(folder, "split.ckpt"), expect_kind="split")
    num_users, num_items = meta["num_users"], meta["num_items"]

    def ratings(name):
        return RatingMatrix(num_users, num_items, *np.ascontiguousarray(arrays[name].T), *scale)

    return ratings("train"), ratings("test"), TrustGraph(num_users, *arrays["trust"].T)


def split(ratings, spec):
    """Partition the stored ratings into train/test matrices.

    The split is uniform over entries: round(train_fraction * total) of them
    land in train, the rest in test, chosen by a seeded shuffle of the
    canonical (user, item) entry order.  Identical inputs give identical
    partitions.
    """
    total = len(ratings)
    if total == 0:
        raise ValueError("cannot split an empty rating matrix")
    n_train = int(round(spec.train_fraction * total))
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(total)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    def take(idx):
        return replace(
            ratings,
            users=ratings.users[idx],
            items=ratings.items[idx],
            values=ratings.values[idx],
        )

    return take(train_idx), take(test_idx)


def global_mean(ratings):
    """Arithmetic mean of all stored ratings."""
    if len(ratings) == 0:
        raise ValueError("rating matrix has no entries")
    return float(ratings.values.mean())


def subsample_top_trust_users(ratings, graph, count):
    """Restrict a dataset to the ``count`` users of highest trust degree.

    Degree is out-degree plus in-degree in the trust graph; degree ties break
    toward the smaller user index.  Keeps every rating of the selected users
    and every trust edge between two of them, reindexing users to 0..count-1
    in original index order.  Items are left unchanged.

    Returns (ratings, graph, kept) where kept maps new indices to old.
    The ratings and the graph must share one user index space.
    """
    if graph.num_users != ratings.num_users:
        raise ValueError(
            f"trust graph has {graph.num_users} users but the ratings have {ratings.num_users}"
        )
    if count <= 0 or count > ratings.num_users:
        raise ValueError("count must lie in [1, num_users]")
    degrees = graph.degrees()
    order = np.lexsort((np.arange(len(degrees)), -degrees))
    kept = np.sort(order[:count])
    new_index = np.full(ratings.num_users, -1, dtype=np.int64)
    new_index[kept] = np.arange(count)

    mask = new_index[ratings.users] >= 0
    sub_ratings = replace(
        ratings,
        num_users=count,
        users=new_index[ratings.users[mask]],
        items=ratings.items[mask],
        values=ratings.values[mask],
    )
    truster, trustee = new_index[graph.rows()], new_index[graph.indices]
    inside = (truster >= 0) & (trustee >= 0)
    sub_graph = TrustGraph(count, truster[inside], trustee[inside], graph.data[inside])
    return sub_ratings, sub_graph, kept
