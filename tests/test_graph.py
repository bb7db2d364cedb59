import numpy as np
import pytest
from scipy import sparse

from oracles import (
    best_partition_value,
    dense_pagerank,
    dict_propagate_trust,
    exhaustive_propagation,
    single_move_optimal,
)
from trustrec import graph as graph_module
from trustrec.data import TrustGraph
from trustrec.graph import (
    community_leaders,
    directed_adjacency,
    load_graph,
    louvain,
    modularity,
    pagerank,
    propagate_trust,
    save_graph,
    symmetrized_adjacency,
)


def complete_graph(n):
    return TrustGraph.from_edges(n, [(a, b, 1.0) for a in range(n) for b in range(n) if a != b])


def pair_value(propagated, truster, trustee):
    """Propagated trust of one pair, or 0.0 when the trustee is out of reach."""
    return {(u, v): t for u, v, t in zip(propagated.truster.tolist(), propagated.trustee.tolist(), propagated.values.tolist())}.get((truster, trustee), 0.0)


def random_trust_graph(rng, n, p, values=None):
    """Directed graph with cycles and reciprocal edges; about a fifth of the
    users isolated.  ``values`` draws trust from a small set, which makes
    equal path products common; None draws it uniformly from [0.1, 1]."""
    isolated = set(rng.choice(n, size=n // 5, replace=False).tolist()) if n else set()
    edges = [
        (a, b, float(rng.choice(values)) if values else float(rng.uniform(0.1, 1.0)))
        for a in range(n)
        for b in range(n)
        if a != b and a not in isolated and b not in isolated and rng.random() < p
    ]
    edges = [edges[j] for j in rng.permutation(len(edges))]  # rows not in trustee order
    return TrustGraph.from_edges(n, edges)


def assert_same_pairs(mine, reference):
    """Equal truster and trustee arrays and bit-equal values, in the same order."""
    assert mine.num_users == reference.num_users
    np.testing.assert_array_equal(mine.truster, reference.truster)
    np.testing.assert_array_equal(mine.trustee, reference.trustee)
    np.testing.assert_array_equal(mine.values.view(np.int64), reference.values.view(np.int64))


def random_connected_graph(rng, n, p=0.4):
    """Undirected unit-weight graph, resampled until connected."""
    while True:
        edges = [(a, b, 1.0) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        if not edges:
            continue
        g = TrustGraph.from_edges(n, edges)
        adj = symmetrized_adjacency(g)
        n_comp = sparse.csgraph.connected_components(adj, directed=False)[0]
        if n_comp == 1:
            return g


class TestAdjacency:
    def test_directed_keeps_orientation(self):
        g = TrustGraph.from_edges(3, [(0, 1, 0.5)])
        a = directed_adjacency(g).toarray()
        assert a[0, 1] == 0.5
        assert a[1, 0] == 0.0

    def test_symmetrize_takes_max_of_directions(self):
        g = TrustGraph.from_edges(3, [(0, 1, 0.3), (1, 0, 0.9), (1, 2, 0.4)])
        s = symmetrized_adjacency(g).toarray()
        assert s[0, 1] == s[1, 0] == 0.9
        assert s[1, 2] == s[2, 1] == 0.4


class TestModularity:
    def test_single_community_scores_zero(self):
        adj = symmetrized_adjacency(complete_graph(4))
        assert modularity(adj, np.zeros(4, dtype=int)) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_split_scores_half(self, triangle_pair):
        adj = symmetrized_adjacency(triangle_pair)
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(adj, labels) == 0.5

    def test_wrong_merge_scores_below_half(self, triangle_pair):
        adj = symmetrized_adjacency(triangle_pair)
        mixed = np.array([0, 0, 1, 1, 1, 0])
        assert modularity(adj, mixed) < 0.5

    def test_edgeless_graph_scores_zero(self):
        adj = sparse.csr_matrix((4, 4))
        assert modularity(adj, np.arange(4)) == 0.0

    def test_bounded_on_random_labellings(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_connected_graph(rng, 7)
            labels = rng.integers(0, 3, size=7)
            q = modularity(symmetrized_adjacency(g), labels)
            assert -1.0 <= q <= 1.0


class TestLouvain:
    def test_two_triangles(self, triangle_pair):
        result = louvain(triangle_pair, seed=0)
        assert result.num_communities == 2
        assert result.modularity == 0.5
        assert len(set(result.labels[:3])) == 1
        assert len(set(result.labels[3:])) == 1

    def test_complete_graph_stays_whole(self):
        result = louvain(complete_graph(4), seed=0)
        assert result.num_communities == 1

    def test_edgeless_graph_gets_singletons(self):
        result = louvain(TrustGraph(5), seed=0)
        assert result.num_communities == 5
        np.testing.assert_array_equal(result.labels, np.arange(5))
        assert result.modularity == 0.0

    def test_labels_contiguous_first_occurrence_order(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 8)
        result = louvain(g, seed=1)
        seen = []
        for label in result.labels:
            if label not in seen:
                seen.append(label)
        assert seen == list(range(result.num_communities))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 10, p=0.3)
        a = louvain(g, seed=5)
        b = louvain(g, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.modularity == b.modularity

    def test_never_below_singleton_baseline(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            g = random_connected_graph(rng, 8, p=0.35)
            adj = symmetrized_adjacency(g)
            result = louvain(g, seed=trial)
            baseline = modularity(adj, np.arange(8))
            assert result.modularity >= baseline - 1e-12

    def test_optimal_or_single_move_stuck_on_small_graphs(self):
        rng = np.random.default_rng(4)
        for trial in range(12):
            n = int(rng.integers(4, 7))
            g = random_connected_graph(rng, n, p=0.45)
            adj = symmetrized_adjacency(g)
            result = louvain(g, seed=trial)

            def value(labels):
                return modularity(adj, labels)

            best = best_partition_value(n, value)
            if result.modularity < best - 1e-9:
                assert single_move_optimal(result.labels, value)

    def test_reported_modularity_matches_labelling(self, triangle_pair):
        result = louvain(triangle_pair, seed=0)
        adj = symmetrized_adjacency(triangle_pair)
        assert result.modularity == modularity(adj, result.labels)


class TestPagerank:
    def test_three_cycle_is_uniform(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        scores = pagerank(directed_adjacency(g))
        np.testing.assert_allclose(scores, np.full(3, 1 / 3), atol=1e-9)

    def test_star_hub_dominates(self):
        g = TrustGraph.from_edges(4, [(spoke, 0, 1.0) for spoke in (1, 2, 3)])
        scores = pagerank(directed_adjacency(g))
        assert scores[0] > scores[1:].max()

    def test_single_node(self):
        scores = pagerank(sparse.csr_matrix((1, 1)))
        assert scores.tolist() == [1.0]
        assert pagerank(sparse.csr_matrix((0, 0))).shape == (0,)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        dense = (rng.random((20, 20)) < 0.15).astype(float)
        np.fill_diagonal(dense, 0.0)
        scores = pagerank(sparse.csr_matrix(dense))
        assert abs(scores.sum() - 1.0) < 1e-9
        assert scores.min() > 0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for n in (10, 25, 50):
            dense = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
            np.fill_diagonal(dense, 0.0)
            mine = pagerank(sparse.csr_matrix(dense), tol=1e-13)
            oracle = dense_pagerank(dense)
            np.testing.assert_allclose(mine, oracle, atol=1e-8)

    def test_dangling_mass_redistributed(self):
        # 0 -> 1, node 1 dangles; without redistribution scores leak
        g = TrustGraph.from_edges(3, [(0, 1, 1.0)])
        mine = pagerank(directed_adjacency(g), tol=1e-13)
        oracle = dense_pagerank(directed_adjacency(g).toarray())
        np.testing.assert_allclose(mine, oracle, atol=1e-8)
        assert mine[1] > mine[0]

    def test_nonconvergence_raises(self):
        g = complete_graph(5)
        with pytest.raises(RuntimeError):
            pagerank(directed_adjacency(g), tol=0.0, max_iter=3)

    @pytest.mark.parametrize("damping", [1.0, 1.5, -0.1])
    def test_damping_outside_unit_interval_rejected(self, damping):
        with pytest.raises(ValueError, match=r"damping must lie in \[0, 1\)"):
            pagerank(directed_adjacency(complete_graph(5)), damping=damping)


class TestLeaders:
    def test_ties_break_to_smallest_index(self):
        # two mutually trusting pairs: inside each community both members tie
        g = TrustGraph.from_edges(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        communities = louvain(g, seed=0)
        table = community_leaders(g, communities)
        leaders = sorted(table.leaders.tolist())
        assert leaders == [0, 2]

    def test_singleton_leads_itself(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        communities = louvain(g, seed=0)
        table = community_leaders(g, communities)
        lone = communities.labels[2]
        assert table.leaders[lone] == 2

    def test_leader_is_community_member(self, triangle_pair):
        communities = louvain(triangle_pair, seed=0)
        table = community_leaders(triangle_pair, communities)
        for c in range(communities.num_communities):
            assert communities.labels[table.leaders[c]] == c

    def test_one_leader_per_community(self, triangle_pair):
        communities = louvain(triangle_pair, seed=0)
        table = community_leaders(triangle_pair, communities)
        assert len(table.leaders) == communities.num_communities

    def test_scored_inside_community_only(self):
        # node 2 collects many external endorsements but sits outside the pair
        # community {0, 1}, which one of its own members must lead
        edges = [(0, 1, 1.0), (1, 0, 0.2)]
        for outsider in (3, 4, 5):
            edges += [(outsider, 2, 1.0), (2, outsider, 1.0)]
        g = TrustGraph.from_edges(6, edges)
        communities = louvain(g, seed=0)
        table = community_leaders(g, communities)
        pair_community = communities.labels[0]
        assert communities.labels[1] == pair_community
        assert table.leaders[pair_community] in (0, 1)

    def test_user_leaders_marks_leaders_negative(self, triangle_pair):
        communities = louvain(triangle_pair, seed=0)
        table = community_leaders(triangle_pair, communities)
        per_user = table.user_leaders()
        for u in range(6):
            if u in table.leaders:
                assert per_user[u] == -1
            else:
                assert per_user[u] == table.leaders[table.labels[u]]

    def test_permutation_equivariance_without_ties(self):
        # a path 0-1-2-3-4 has distinct pagerank per position
        g = TrustGraph.from_edges(5, [e for a in range(4) for e in ((a, a + 1, 1.0), (a + 1, a, 1.0))])
        perm = np.array([3, 0, 4, 1, 2])
        h = TrustGraph.from_edges(5, [(perm[u], perm[v], t) for u, v, t in g.edges()])
        comm_g = louvain(g, seed=0)
        # impose the permuted communities directly so only leader choice varies
        from trustrec.graph import CommunityAssignment

        labels_h = np.empty(5, dtype=np.int64)
        labels_h[perm] = comm_g.labels
        comm_h = CommunityAssignment(labels_h, comm_g.num_communities, comm_g.modularity)
        table_g = community_leaders(g, comm_g)
        table_h = community_leaders(h, comm_h)
        for c in range(comm_g.num_communities):
            assert table_h.leaders[c] == perm[table_g.leaders[c]]


class TestPropagation:
    def test_direct_edge_keeps_value(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.6)])
        result = propagate_trust(g, decay=0.8, max_depth=3)
        assert pair_value(result, 0, 1) == 1.0
        assert pair_value(result, 1, 2) == 0.6

    def test_chain_decays_one_step(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        result = propagate_trust(g, decay=0.8, max_depth=3)
        assert pair_value(result, 0, 2) == pytest.approx(0.8, abs=1e-15)

    def test_unreachable_pair_absent(self):
        g = TrustGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        result = propagate_trust(g, decay=0.8, max_depth=3)
        assert pair_value(result, 0, 3) == 0.0
        assert pair_value(result, 3, 2) == 0.0  # direction matters

    def test_shortest_path_wins_over_better_long_path(self):
        # direct weak edge vs a strong two-hop detour: distance decides
        g = TrustGraph.from_edges(3, [(0, 2, 0.3), (0, 1, 1.0), (1, 2, 1.0)])
        result = propagate_trust(g, decay=0.9, max_depth=3)
        assert pair_value(result, 0, 2) == 0.3

    def test_max_product_among_equal_length_paths(self):
        g = TrustGraph.from_edges(4, [(0, 1, 0.9), (1, 3, 0.9), (0, 2, 0.5), (2, 3, 1.0)])
        result = propagate_trust(g, decay=1.0, max_depth=2)
        assert pair_value(result, 0, 3) == pytest.approx(0.81, abs=1e-15)

    def test_horizon_cuts_off(self):
        g = TrustGraph.from_edges(5, [(a, a + 1, 1.0) for a in range(4)])
        result = propagate_trust(g, decay=0.8, max_depth=2)
        assert pair_value(result, 0, 2) > 0
        assert pair_value(result, 0, 3) == 0.0

    def test_unit_chain_values_non_increasing_with_distance(self):
        g = TrustGraph.from_edges(6, [(a, a + 1, 1.0) for a in range(5)])
        result = propagate_trust(g, decay=0.8, max_depth=5)
        values = [pair_value(result, 0, d) for d in range(1, 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_num_pairs_counts_entries(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        result = propagate_trust(g, decay=0.8, max_depth=2)
        assert result.num_pairs == len(result.truster) == len(result.trustee) == 3

    def test_matches_exhaustive_oracle_on_random_digraphs(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 11))
            edges = {}
            for a in range(n):
                for b in range(n):
                    if a != b and rng.random() < 0.3:
                        edges.setdefault(a, {})[b] = float(rng.uniform(0.1, 1.0))
            g = TrustGraph.from_edges(n, [(a, b, t) for a in edges for b, t in edges[a].items()])
            depth = int(rng.integers(1, 4))
            mine = propagate_trust(g, decay=0.8, max_depth=depth)
            oracle = exhaustive_propagation(edges, n, 0.8, depth)
            got = {(u, v): t for u, v, t in zip(mine.truster.tolist(), mine.trustee.tolist(), mine.values.tolist())}
            assert mine.num_pairs == len(got)
            assert set(got) == {(u, v) for u in oracle for v in oracle[u]}
            for u in oracle:
                for v, t in oracle[u].items():
                    assert got[(u, v)] == pytest.approx(t, abs=1e-12)

    def test_pair_order_is_truster_hop_discovery(self):
        # 0's row lists 2 before 1; hop 2 scans 2's row first, so 5 ranks
        # before 4 although 1 reaches both; 3 reaches nobody new
        g = TrustGraph.from_edges(
            6, [(0, 2, 0.5), (0, 1, 1.0), (2, 5, 1.0), (1, 4, 0.5), (1, 5, 1.0), (3, 0, 1.0)]
        )
        result = propagate_trust(g, decay=0.8, max_depth=2)
        assert list(zip(result.truster.tolist(), result.trustee.tolist())) == [
            (0, 2), (0, 1), (0, 5), (0, 4),
            (1, 4), (1, 5),
            (2, 5),
            (3, 0), (3, 2), (3, 1),
        ]
        # 5 via 2 (0.5 · 1.0) and via 1 (1.0 · 1.0): the larger product wins
        assert pair_value(result, 0, 5) == 1.0 * 0.8

    def test_equal_products_keep_first_discovery(self):
        # 3 is reached through 1 and through 2 with the same product 0.5
        g = TrustGraph.from_edges(4, [(0, 1, 0.5), (0, 2, 1.0), (2, 3, 0.5), (1, 3, 1.0)])
        for decay in (1.0, 0.8):
            assert_same_pairs(
                propagate_trust(g, decay=decay, max_depth=3),
                dict_propagate_trust(g, decay=decay, max_depth=3),
            )

    def test_empty_and_edgeless_graphs(self):
        for n in (0, 1, 4):
            result = propagate_trust(TrustGraph(n), decay=0.8, max_depth=3)
            assert result.num_pairs == 0 and result.num_users == n
            assert result.truster.dtype == result.trustee.dtype == np.int64
            assert result.values.dtype == np.float64

    @pytest.mark.parametrize("values", [None, (0.5, 0.8, 1.0)], ids=["uniform", "ties"])
    def test_bit_equal_to_dict_reference(self, values):
        rng = np.random.default_rng(15)
        for trial in range(40):
            n = int(rng.integers(0, 25))
            g = random_trust_graph(rng, n, float(rng.uniform(0.05, 0.5)), values)
            for depth in (1, 2, 3, 4):
                for decay in (1.0, 0.8):
                    assert_same_pairs(
                        propagate_trust(g, decay=decay, max_depth=depth),
                        dict_propagate_trust(g, decay=decay, max_depth=depth),
                    )

    @pytest.mark.parametrize("cap", [1, 7, 10**12], ids=["one-source", "small", "one-block"])
    def test_source_blocks_do_not_change_pairs(self, monkeypatch, cap):
        rng = np.random.default_rng(16)
        graphs = [random_trust_graph(rng, 60, 0.08, (0.5, 0.8, 1.0)) for _ in range(3)]
        joins = []
        join = graph_module._join

        def recording_join(graph, seen, source, node, product, fanout):
            joins.append((len(np.unique(source)), int(fanout.sum())))
            return join(graph, seen, source, node, product, fanout)

        monkeypatch.setattr(graph_module, "_join", recording_join)
        monkeypatch.setattr(graph_module, "_JOIN_CANDIDATES", cap)
        for g in graphs:
            for depth in (2, 3, 4):
                assert_same_pairs(
                    propagate_trust(g, decay=0.8, max_depth=depth),
                    dict_propagate_trust(g, decay=0.8, max_depth=depth),
                )
        # a join holds at most the cap, or one source's candidates
        assert joins and all(sources == 1 or candidates <= cap for sources, candidates in joins)
        if cap == 10**12:
            assert len(joins) == 3 * (1 + 2 + 3)  # one join per hop

    def test_parameter_validation(self):
        g = TrustGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            propagate_trust(g, decay=0.0)
        with pytest.raises(ValueError):
            propagate_trust(g, decay=0.8, max_depth=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        # one graph with edges, one edgeless, so with no propagated pairs
        for n, g in ((30, random_trust_graph(rng, 30, 0.1)), (4, TrustGraph(4))):
            communities = louvain(g, seed=0)
            leaders = community_leaders(g, communities)
            propagated = propagate_trust(g, decay=0.8, max_depth=3)
            path = tmp_path / f"graph-{n}.ckpt"
            save_graph(path, communities, leaders, propagated)
            trust, table = load_graph(path)
            assert table.leaders.dtype == table.labels.dtype == np.int64
            np.testing.assert_array_equal(table.leaders, leaders.leaders)
            np.testing.assert_array_equal(table.labels, communities.labels)
            assert_same_pairs(trust, propagated)
            assert trust.truster.dtype == trust.trustee.dtype == np.int64
            assert (trust.num_pairs > 0) == (n == 30)
