import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from oracles import central_difference, gradient_gap, reference_walks, reference_window_step, walk_pairs
from trustrec import embed
from trustrec.data import TrustGraph
from trustrec.embed import (
    WalkConfig,
    _inverse_cdf,
    _noise_cdf,
    _window_step,
    cosine_similarity,
    generate_walks,
    node_embeddings,
    step_distribution,
    train_embeddings,
)
from trustrec.graph import symmetrized_adjacency


def mutual_graph(n, pairs):
    """Graph with a unit-trust edge each way for every pair."""
    return TrustGraph.from_edges(n, [e for a, b in pairs for e in ((a, b, 1.0), (b, a, 1.0))])


def triangle_adjacency():
    return symmetrized_adjacency(mutual_graph(3, [(0, 1), (1, 2), (2, 0)]))


def barbell_graph():
    cliques = [pair for side in (range(5), range(5, 10)) for pair in combinations(side, 2)]
    return mutual_graph(10, cliques + [(4, 5)])


class TestStepDistribution:
    def test_uniform_when_unbiased(self):
        adj = triangle_adjacency()
        candidates, probs = step_distribution(adj, None, 0, 1.0, 1.0)
        assert sorted(candidates.tolist()) == [1, 2]
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_triangle_bias_values(self):
        # from a to b in a triangle: back to a weighs 1/p, on to c weighs 1
        # since c also neighbors a; p=0.5, q=2 gives {a: 2, c: 1} -> {2/3, 1/3}
        adj = triangle_adjacency()
        candidates, probs = step_distribution(adj, 0, 1, 0.5, 2.0)
        lookup = dict(zip(candidates.tolist(), probs.tolist()))
        assert lookup[0] == pytest.approx(2 / 3)
        assert lookup[2] == pytest.approx(1 / 3)

    def test_distance_two_gets_inverse_q(self):
        # path 0-1-2: from 1 after 0, node 2 is two hops from 0 -> bias 1/q
        adj = symmetrized_adjacency(mutual_graph(3, [(0, 1), (1, 2)]))
        candidates, probs = step_distribution(adj, 0, 1, 1.0, 4.0)
        lookup = dict(zip(candidates.tolist(), probs.tolist()))
        assert lookup[0] == pytest.approx(0.8)  # 1 vs 1/4
        assert lookup[2] == pytest.approx(0.2)

    def test_sole_neighbor_certain(self):
        g = TrustGraph.from_edges(2, [(0, 1, 1.0)])
        adj = symmetrized_adjacency(g)
        candidates, probs = step_distribution(adj, 0, 1, 2.0, 3.0)
        assert candidates.tolist() == [0]
        assert probs.tolist() == [1.0]

    def test_edge_weights_scale_probabilities(self):
        g = TrustGraph.from_edges(3, [(1, 0, 0.9), (1, 2, 0.3)])
        adj = symmetrized_adjacency(g)
        candidates, probs = step_distribution(adj, None, 1, 1.0, 1.0)
        lookup = dict(zip(candidates.tolist(), probs.tolist()))
        assert lookup[0] == pytest.approx(0.75)
        assert lookup[2] == pytest.approx(0.25)

    def test_always_a_distribution(self):
        rng = np.random.default_rng(0)
        dense = rng.random((8, 8)) * (rng.random((8, 8)) < 0.5)
        dense = np.maximum(dense, dense.T)
        np.fill_diagonal(dense, 0.0)
        adj = sparse.csr_matrix(dense)
        for cur in range(8):
            nbrs = adj.indices[adj.indptr[cur] : adj.indptr[cur + 1]]
            if len(nbrs) == 0:
                continue
            for prev in [None, *nbrs.tolist()]:
                _, probs = step_distribution(adj, prev, cur, 0.7, 1.8)
                assert probs.min() >= 0
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def walks_as_lists(*args, **kwargs):
    """generate_walks' int64 arrays as plain lists, for exact comparison."""
    return [walk.tolist() for walk in generate_walks(*args, **kwargs)]


class TestGenerateWalks:
    def test_walks_are_int64_views_of_the_round_arrays(self):
        config = WalkConfig(dimensions=2, num_walks=2, walk_length=5, seed=0)
        walks = generate_walks(barbell_graph(), config)
        assert len(walks) == 20
        assert all(w.dtype == np.int64 and w.base is not None for w in walks)

    @pytest.mark.parametrize("graph, starts", [(barbell_graph(), 10), (TrustGraph(5), 0)])
    def test_one_fixed_length_array_grouped_per_start(self, graph, starts):
        config = WalkConfig(dimensions=2, num_walks=3, walk_length=6, seed=1)
        walks = generate_walks(graph, config)
        assert walks.dtype == np.int64
        assert walks.shape == (starts * 3, 6)
        assert walks[:, 0].tolist() == [node for node in range(starts) for _ in range(3)]

    def test_two_node_graph_alternates(self):
        g = TrustGraph.from_edges(2, [(0, 1, 1.0)])
        config = WalkConfig(dimensions=2, num_walks=1, walk_length=4, seed=0)
        walks = walks_as_lists(g, config)
        assert walks == [[0, 1, 0, 1], [1, 0, 1, 0]]

    def test_isolated_node_gets_no_walks(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0)])
        config = WalkConfig(dimensions=2, num_walks=2, walk_length=3, seed=0)
        walks = walks_as_lists(g, config)
        assert {w[0] for w in walks} == {0, 1}
        assert len(walks) == 4

    def test_deterministic_per_seed(self):
        g = barbell_graph()
        config = WalkConfig(dimensions=2, num_walks=3, walk_length=10, seed=9)
        assert walks_as_lists(g, config) == walks_as_lists(g, config)

    def test_walk_count_and_length(self):
        g = barbell_graph()
        config = WalkConfig(dimensions=2, num_walks=4, walk_length=7, seed=1)
        walks = walks_as_lists(g, config)
        assert len(walks) == 40
        assert all(len(w) == 7 for w in walks)

    def test_processing_order_does_not_matter(self):
        g = barbell_graph()
        config = WalkConfig(dimensions=2, num_walks=2, walk_length=8, seed=4)
        full = walks_as_lists(g, config)
        by_start = {}
        for w in full:
            by_start.setdefault(w[0], []).append(w)
        shuffled = walks_as_lists(g, config, nodes=[7, 2, 9, 0])
        regrouped = {}
        for w in shuffled:
            regrouped.setdefault(w[0], []).append(w)
        for node in (7, 2, 9, 0):
            assert regrouped[node] == by_start[node]

    def test_steps_follow_edges(self):
        g = barbell_graph()
        adj = symmetrized_adjacency(g).toarray()
        config = WalkConfig(dimensions=2, num_walks=2, walk_length=12, seed=2)
        for w in walks_as_lists(g, config):
            for a, b in zip(w, w[1:]):
                assert adj[a, b] > 0


def weighted_graph(n=40, density=0.3, isolated=(), seed=0):
    """Random symmetric weighted adjacency; degrees reach past 8, where
    numpy's pairwise summation departs from a sequential sum."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    for node in isolated:
        dense[node, :] = dense[:, node] = 0.0
    return sparse.csr_matrix(dense)


def dead_end_graph():
    """Directed 0->1, 1->2, 2->0 (weight 2), 0->3; node 3 has no out-edge."""
    rows, cols, vals = [0, 1, 2, 0], [1, 2, 0, 3], [1.0, 1.0, 2.0, 1.0]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(4, 4))


class TestWalkOracle:
    """generate_walks must draw exactly the walks of the per-step loop."""

    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
    def test_weighted_undirected(self, p, q):
        adj = weighted_graph()
        assert np.diff(adj.indptr).max() > 8
        config = WalkConfig(dimensions=2, num_walks=3, walk_length=15, p=p, q=q, seed=7)
        assert walks_as_lists(adj, config) == reference_walks(adj, config)

    def test_directed_dead_end(self):
        config = WalkConfig(dimensions=2, num_walks=3, walk_length=8, p=0.5, q=2.0, seed=3)
        with pytest.raises(ValueError, match="no out-edge"):
            generate_walks(dead_end_graph(), config)

    def test_shuffled_node_subset(self):
        adj = weighted_graph(seed=1)
        nodes = np.random.default_rng(2).permutation(40)[:15].tolist()
        config = WalkConfig(dimensions=2, num_walks=3, walk_length=10, p=0.5, q=2.0, seed=4)
        assert walks_as_lists(adj, config, nodes=nodes) == reference_walks(adj, config, nodes=nodes)

    def test_walk_length_one(self):
        adj = weighted_graph(seed=2, isolated=(5,))
        config = WalkConfig(dimensions=2, num_walks=3, walk_length=1, seed=5)
        walks = walks_as_lists(adj, config)
        assert walks == reference_walks(adj, config)
        assert walks == [[node] for node in range(40) if node != 5 for _ in range(3)]

    def test_isolated_nodes(self):
        adj = weighted_graph(density=0.1, isolated=(0, 17, 39), seed=3)
        config = WalkConfig(dimensions=2, num_walks=4, walk_length=12, p=2.0, q=0.5, seed=6)
        walks = walks_as_lists(adj, config)
        assert walks == reference_walks(adj, config)
        assert not {0, 17, 39} & {w[0] for w in walks}


class TestSkipGram:
    def test_zero_epochs_keeps_initialization(self):
        g = barbell_graph()
        config = WalkConfig(dimensions=4, num_walks=2, walk_length=6, epochs=0, seed=3)
        walks = generate_walks(g, config)
        table = train_embeddings(walks, 10, config)
        d = config.dimensions
        expected = np.random.default_rng(config.seed).uniform(-0.5 / d, 0.5 / d, size=(10, d))
        np.testing.assert_array_equal(table, expected)

    def test_deterministic(self):
        g = barbell_graph()
        config = WalkConfig(dimensions=4, num_walks=3, walk_length=10, epochs=2, seed=5)
        walks = generate_walks(g, config)
        a = train_embeddings(walks, 10, config)
        b = train_embeddings(walks, 10, config)
        np.testing.assert_array_equal(a, b)

    def test_co_occurring_pairs_beat_strangers(self):
        # two disjoint pairs that never share a window: training must pull
        # each pair together while the cross-pair affinities stay low
        walks = [[0, 1] * 20, [2, 3] * 20, [0, 1] * 20, [2, 3] * 20]
        config = WalkConfig(
            dimensions=8, num_walks=1, walk_length=40, window=2, negatives=5,
            epochs=25, learning_rate=0.05, seed=0,
        )
        table = train_embeddings(walks, 4, config)
        paired = min(
            cosine_similarity(table[0], table[1]),
            cosine_similarity(table[2], table[3]),
        )
        crossed = max(
            cosine_similarity(table[a], table[b])
            for a in (0, 1)
            for b in (2, 3)
        )
        assert paired > 0.9
        assert crossed < 0.5

    def test_pairwise_gradient_identity(self):
        # loss for one positive and a fixed negative set:
        #   -log s(u.v) - sum(log s(-u.n))
        # its u-gradient is (s(u.v) - 1) v + sum s(u.n) n, the exact update
        # direction applied during training
        rng = np.random.default_rng(11)
        v = rng.normal(size=6)
        negs = rng.normal(size=(3, 6))

        def loss(u):
            out = -np.log(expit(u @ v))
            for nvec in negs:
                out -= np.log(expit(-(u @ nvec)))
            return out

        u0 = rng.normal(size=6)
        analytic = (expit(u0 @ v) - 1.0) * v + expit(negs @ u0) @ negs
        numeric = central_difference(loss, u0)
        assert gradient_gap(analytic, numeric) < 1e-6

    def test_nodes_missing_from_walks_stay_zero(self):
        walks = [[0, 1, 0, 1]]
        config = WalkConfig(dimensions=3, num_walks=1, walk_length=4, window=1, epochs=2, seed=0)
        table = train_embeddings(walks, 5, config)
        np.testing.assert_array_equal(table[2:], np.zeros((3, 3)))
        assert np.abs(table[:2]).sum() > 0


class TestNegativeSampler:
    """The bucketed sampler must give exactly np.searchsorted(cdf, u, side="left")."""

    @staticmethod
    def noise_cdf(counts):
        noise = np.asarray(counts, dtype=np.float64) ** 0.75
        return np.cumsum(noise / noise.sum())

    def assert_matches_searchsorted(self, cdf, u):
        got = _inverse_cdf(cdf)(u)
        want = np.searchsorted(cdf, u, side="left")
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def edge_draws(self, cdf, rng):
        inside = cdf[cdf < 1.0]
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            inside,  # u equal to a CDF value
            np.nextafter(inside, 0.0),
            np.nextafter(inside, 1.0),
            rng.random(4000),
        ])
        return u[u < 1.0]  # rng.random's range

    def test_zero_count_runs(self):
        # leading, interior and trailing runs of nodes no walk visits
        counts = np.zeros(300)
        counts[[40, 41, 45, 150, 151, 152, 290]] = [3, 1, 7, 2, 2, 9, 4]
        cdf = self.noise_cdf(counts)
        assert cdf[0] == 0.0 and len(np.unique(cdf)) < 10
        self.assert_matches_searchsorted(cdf, self.edge_draws(cdf, np.random.default_rng(0)))

    def test_cdf_ending_below_one(self):
        rng = np.random.default_rng(1)
        short = 0
        for _ in range(200):
            counts = rng.integers(0, 5, size=int(rng.integers(1, 200)))
            counts[rng.random(len(counts)) < 0.5] = 0
            if counts.sum() == 0:
                continue
            cdf = self.noise_cdf(counts)
            short += cdf[-1] < 1.0
            u = self.edge_draws(cdf, rng)
            self.assert_matches_searchsorted(cdf, u.reshape(-1, 1))
        assert short > 0

    @pytest.mark.parametrize("counts", [[1, 5, 5], [5, 0, 1, 5], [0, 3, 6, 3]])
    @pytest.mark.parametrize("trailing_unvisited", [0, 3])
    def test_draw_past_a_short_cdf_lands_on_last_visited_node(self, counts, trailing_unvisited):
        counts = np.concatenate([counts, np.zeros(trailing_unvisited)])
        plain = self.noise_cdf(counts)
        assert plain[-1] < np.nextafter(1.0, 0.0)
        u = np.concatenate([[np.nextafter(1.0, 0.0)], plain, np.random.default_rng(3).random(4000)])
        before = np.searchsorted(plain, u)
        assert before[0] == len(counts)  # one past the last row
        got = _inverse_cdf(_noise_cdf(counts))(u)
        kept = before < len(counts)
        np.testing.assert_array_equal(got[kept], before[kept])
        np.testing.assert_array_equal(got[~kept], np.flatnonzero(counts)[-1])

    def test_batch_shape_kept(self):
        cdf = self.noise_cdf([0, 2, 0, 0, 5, 1])
        u = np.random.default_rng(2).random((64, 5))
        u[0, 0] = 0.0
        u[1, :] = cdf[:5]
        self.assert_matches_searchsorted(cdf, u)


def record_steps(monkeypatch):
    """Copies of every ``_window_step`` call's arguments, in call order."""
    calls = []

    def recording(inputs, contexts, window, mask, outputs, lr):
        calls.append((window.copy(), mask.copy(), outputs.copy(), lr))
        _window_step(inputs, contexts, window, mask, outputs, lr)

    monkeypatch.setattr(embed, "_window_step", recording)
    return calls


class TestWindowBatches:
    """The window-batched skip-gram against per-pair references."""

    # five walks of six steps: at window 4 a middle position's window crosses
    # both walk ends; nodes 1, 3 and 5 repeat inside windows; node 7 is in no walk
    WALKS = [[0, 1, 1, 2, 0, 3], [4, 2, 5, 3, 3, 0], [3, 3, 0, 1, 4, 2], [2, 5, 0, 6, 1, 4], [1, 0, 6, 2, 5, 5]]

    def test_step_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(0.0, 0.5, size=(7, 3))
        contexts = rng.normal(0.0, 0.5, size=(7, 3))
        # row 0 repeats node 2 inside its window and draws its centre 0 as a
        # negative; row 1 draws the same negative twice; masked slots hold
        # the centre itself
        window = np.array([[2, 2, 3, 0], [4, 4, 6, 5], [1, 2, 2, 2]])
        mask = np.array([[True, True, True, False], [False, True, True, True], [True, False, False, True]])
        outputs = np.array([[0, 0, 5, 2], [4, 1, 1, 3], [2, 6, 2, 0]])
        want = reference_window_step(inputs, contexts, window, mask, outputs, 0.3)
        _window_step(inputs, contexts, window, mask, outputs, 0.3)
        np.testing.assert_allclose(inputs, want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(contexts, want[1], rtol=0, atol=1e-12)

    def test_training_replays_reference_steps(self, monkeypatch):
        # the whole run equals the scalar reference fed the same batches,
        # negatives and learning rates, from the same starting tables
        config = WalkConfig(dimensions=3, window=2, negatives=3, epochs=2, batch_size=20, seed=8)
        calls = record_steps(monkeypatch)
        table = train_embeddings(self.WALKS, 8, config)
        assert len(calls) > 4
        inputs = np.random.default_rng(config.seed).uniform(-0.5 / 3, 0.5 / 3, size=(8, 3))
        contexts = np.zeros((8, 3))
        for window, mask, outputs, lr in calls:
            inputs, contexts = reference_window_step(inputs, contexts, window, mask, outputs, lr)
        inputs[7] = 0.0  # node 7 is in no walk
        np.testing.assert_allclose(table, inputs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_epoch_trains_the_walk_pair_multiset(self, monkeypatch, window):
        config = WalkConfig(dimensions=2, window=window, negatives=2, epochs=1, batch_size=16, seed=1)
        calls = record_steps(monkeypatch)
        train_embeddings(self.WALKS, 8, config)
        got = Counter()
        for nodes, mask, outputs, _ in calls:
            centres = np.broadcast_to(outputs[:, :1], nodes.shape)
            got.update(zip(nodes[mask].tolist(), centres[mask].tolist()))
        want = Counter(zip(*(side.tolist() for side in walk_pairs(self.WALKS, window))))
        assert got == want
        positions = sum(len(walk) for walk in self.WALKS)
        assert sum(len(outputs) for _, _, outputs, _ in calls) == positions
        assert {outputs.shape[1] for _, _, outputs, _ in calls} == {1 + config.negatives}
        assert max(len(outputs) for _, _, outputs, _ in calls) == max(1, 16 // (2 * window))

    def test_memory_stays_below_eight_bytes_per_pair(self):
        walks = np.random.default_rng(0).integers(0, 500, size=(2000, 40)).tolist()
        config = WalkConfig(dimensions=10, window=5, epochs=1, seed=0)
        pairs = len(walk_pairs(walks[:1], config.window)[0]) * len(walks)
        tracemalloc.start()
        try:
            train_embeddings(walks, 500, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * pairs

    def test_array_corpus_is_read_in_place(self):
        # the only per-token working array is the shuffled order (8 bytes a
        # token); the walk array itself is neither copied nor bounded per token
        walks = np.random.default_rng(0).integers(0, 1000, size=(10000, 80))
        config = WalkConfig(dimensions=10, window=1, epochs=1, seed=0)
        tracemalloc.start()
        try:
            train_embeddings(walks, 1000, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * walks.size

    @pytest.mark.parametrize("walks", [[[0, 1, 2], [1, 2]], [0, 1, 2], np.zeros((2, 3, 4), dtype=np.int64)])
    def test_corpus_must_be_one_walk_per_row(self, walks):
        with pytest.raises(ValueError):
            train_embeddings(walks, 3, WalkConfig(dimensions=2, window=1, seed=0))


class TestNodeEmbeddings:
    def test_empty_graph_all_zero(self):
        table = node_embeddings(TrustGraph(5), WalkConfig(dimensions=4, seed=0))
        assert table.shape == (5, 4)
        np.testing.assert_array_equal(table, np.zeros((5, 4)))

    def test_trustless_user_gets_zero_vector(self):
        g = TrustGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)])
        config = WalkConfig(dimensions=4, num_walks=3, walk_length=8, epochs=1, seed=0)
        table = node_embeddings(g, config)
        assert np.linalg.norm(table[3]) == 0.0
        for u in range(3):
            assert np.linalg.norm(table[u]) > 0

    def test_directed_edge_walked_both_ways(self):
        g = TrustGraph.from_edges(2, [(0, 1, 1.0)])  # only one direction stored
        config = WalkConfig(dimensions=3, num_walks=2, walk_length=5, epochs=1, seed=0)
        table = node_embeddings(g, config)
        assert np.linalg.norm(table[0]) > 0
        assert np.linalg.norm(table[1]) > 0

    def test_barbell_cliques_separate(self):
        config = WalkConfig(
            dimensions=8, num_walks=20, walk_length=30, window=3,
            epochs=3, learning_rate=0.05, seed=0,
        )
        table = node_embeddings(barbell_graph(), config)
        intra, inter = [], []
        for a, b in combinations(range(10), 2):
            sim = cosine_similarity(table[a], table[b])
            (intra if (a < 5) == (b < 5) else inter).append(sim)
        assert np.mean(intra) > np.mean(inter)


class TestCosineSimilarity:
    def test_reference_values(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)
        assert cosine_similarity(np.array([1.0, 1.0]), np.array([-1.0, -1.0])) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0


class TestWalkConfig:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(p=0.0)
        with pytest.raises(ValueError):
            WalkConfig(q=-1.0)
        with pytest.raises(ValueError):
            WalkConfig(dimensions=0)
        with pytest.raises(ValueError):
            WalkConfig(epochs=-1)
