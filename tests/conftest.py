import numpy as np
import pytest

from trustrec.data import RatingMatrix, TrustGraph, split, SplitSpec
from trustrec.embed import WalkConfig, node_embeddings
from trustrec.graph import (
    LeaderTable,
    PropagatedTrust,
    community_leaders,
    louvain,
    propagate_trust,
)
from trustrec.model import TrainingContext
from trustrec.synth import toy_bundle


def build_ratings(triples, num_users, num_items, r_min=1.0, r_max=5.0):
    """RatingMatrix from a plain list of (user, item, value) triples."""
    triples = sorted(triples)
    users = np.array([t[0] for t in triples], dtype=np.int64)
    items = np.array([t[1] for t in triples], dtype=np.int64)
    values = np.array([t[2] for t in triples], dtype=np.float64)
    return RatingMatrix(num_users, num_items, users, items, values, r_min, r_max).validate()


@pytest.fixture
def make_ratings():
    return build_ratings


@pytest.fixture
def triangle_pair():
    """Two disjoint triangles on nodes 0-2 and 3-5."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return TrustGraph.from_edges(6, [(a, b, 1.0) for a, b in edges])


@pytest.fixture
def make_context():
    """Builder for fully populated random training contexts.

    Draws a rating matrix plus trust, leader, and embedding components from
    the supplied generator; any component can be switched off to exercise the
    reduced objectives.
    """

    def build(rng, m, n, k, with_trust=True, with_leaders=True, with_embeddings=True):
        count = max(int(0.4 * m * n), 1)
        flat = rng.choice(m * n, size=count, replace=False)
        flat.sort()
        users = flat // n
        items = flat % n
        values = rng.uniform(1.0, 5.0, size=count)
        ratings = RatingMatrix(m, n, users, items, values).validate()

        trust = None
        if with_trust:
            truster, trustee, trust_values = [], [], []
            for u in range(m):
                partners = [v for v in range(m) if v != u and rng.random() < 0.4]
                for v in partners:
                    truster.append(u)
                    trustee.append(v)
                    trust_values.append(float(rng.uniform(0.2, 1.0)))
            trust = PropagatedTrust(truster, trustee, trust_values, m)

        leaders = None
        if with_leaders:
            labels = rng.integers(0, max(m // 3, 1), size=m)
            labels = np.unique(labels, return_inverse=True)[1]
            heads = np.array(
                [int(rng.choice(np.flatnonzero(labels == c))) for c in range(labels.max() + 1)],
                dtype=np.int64,
            )
            leaders = LeaderTable(heads, labels)

        embeddings = None
        if with_embeddings:
            embeddings = rng.normal(0.0, 0.3, size=(m, k))

        return TrainingContext(
            train=ratings, trust=trust, embeddings=embeddings, leaders=leaders
        )

    return build


@pytest.fixture(scope="session")
def social_context():
    """A small end-to-end context built from the toy generator.

    Session-scoped since every stage (communities, leaders, propagation,
    embeddings) is deterministic and a handful of tests share it.
    """
    bundle = toy_bundle(seed=0)
    train, test = split(bundle.ratings, SplitSpec(0.8, 0))
    communities = louvain(bundle.trust, seed=0)
    leaders = community_leaders(bundle.trust, communities)
    trust = propagate_trust(bundle.trust, decay=0.8, max_depth=2)
    embeddings = node_embeddings(
        bundle.trust,
        WalkConfig(dimensions=4, num_walks=4, walk_length=20, window=3, seed=0),
    )
    ctx = TrainingContext(
        train=train,
        trust=trust,
        embeddings=embeddings,
        leaders=leaders,
    )
    return ctx, test, bundle
