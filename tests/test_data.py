import re

import numpy as np
import pytest

from trustrec.data import (
    DataFormatError,
    IdMap,
    RatingMatrix,
    SplitSpec,
    TrustGraph,
    global_mean,
    load_ratings,
    load_trust,
    save_ratings,
    save_trust,
    split,
    subsample_top_trust_users,
)

from oracles import DictTrustGraph, dict_rating_matrix


class TestLoadRatings:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0,0,5\n0,1,3\n1,0,4\n")
        ratings = load_ratings(path)
        assert ratings.num_users == 2
        assert ratings.num_items == 2
        assert len(ratings) == 3
        assert global_mean(ratings) == 4.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("")
        ratings = load_ratings(path)
        assert (ratings.num_users, ratings.num_items, len(ratings)) == (0, 0, 0)

    def test_whitespace_delimiter_and_comments(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# header\n10 20 4.5\n11 20 2\n")
        ratings = load_ratings(path)
        assert len(ratings) == 2
        assert ratings.values.tolist() == [4.5, 2.0]

    def test_duplicate_pair_keeps_last(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("7,3,1\n7,4,2\n7,3,5\n")
        ratings = load_ratings(path)
        assert len(ratings) == 2
        kept = ratings.values[(ratings.users == 0) & (ratings.items == 0)]
        assert kept.tolist() == [5.0]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "r.txt"
        for bad in ("0,nonsense", "0,0,abc"):
            path.write_text(f"0,0,5\n{bad}\n")
            with pytest.raises(DataFormatError) as info:
                load_ratings(path)
            assert info.value.line_no == 2

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, end):
        # past text mode's 8 KB read-ahead, so the line being read when the
        # decoder fails is not the one holding the bad byte
        path = tmp_path / "r.txt"
        lines = [b"%d,%d,%d" % (u, u % 7, 1 + u % 5) for u in range(3000)]
        lines.insert(2000, b"1,2,\xff")
        path.write_bytes(end.join(lines) + end)
        assert path.stat().st_size > 8192
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2001: .*byte 0xff") as info:
            load_ratings(path)
        assert info.value.line_no == 2001

    def test_rating_outside_scale_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0,0,9\n")
        with pytest.raises(DataFormatError):
            load_ratings(path)

    def test_reload_is_structurally_identical(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("3,1,2\n3,2,4\n9,1,5\n")
        first = load_ratings(path)
        second = load_ratings(path)
        np.testing.assert_array_equal(first.users, second.users)
        np.testing.assert_array_equal(first.items, second.items)
        np.testing.assert_array_equal(first.values, second.values)

    def test_ids_mapped_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("42,7,1\n8,7,2\n42,9,3\n")
        user_map = IdMap()
        item_map = IdMap()
        load_ratings(path, user_map=user_map, item_map=item_map)
        assert user_map.index_of(42) == 0
        assert user_map.index_of(8) == 1
        assert item_map.index_of(7) == 0
        assert item_map.index_of(9) == 1


class TestRatingMatrixOracle:
    """RatingMatrix.from_triples against the dict fill it replaced."""

    @staticmethod
    def random_triples(rng, num_users, num_items, count):
        """Unsorted triples in which about a third repeat an earlier pair with a new value."""
        users, items = [], []
        for _ in range(count):
            if users and rng.random() < 0.3:
                j = int(rng.integers(len(users)))
                users.append(users[j])
                items.append(items[j])
            else:
                users.append(int(rng.integers(num_users)))
                items.append(int(rng.integers(num_items)))
        return users, items, rng.uniform(1.0, 5.0, size=count).tolist()

    @staticmethod
    def assert_same(got, want):
        assert (got.num_users, got.num_items, got.r_min, got.r_max) == (
            want.num_users, want.num_items, want.r_min, want.r_max,
        )
        for field in ("users", "items"):
            assert getattr(got, field).dtype == np.int64
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    def test_matches_the_dict_fill(self):
        rng = np.random.default_rng(0)
        for case in range(50):
            num_users, num_items = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            if case % 10 == 0:
                num_items = 1
            triples = self.random_triples(rng, num_users, num_items, int(rng.integers(0, 60)))
            got = RatingMatrix.from_triples(num_users, num_items, *triples, r_min=0.5, r_max=5.5)
            self.assert_same(got, dict_rating_matrix(num_users, num_items, *triples, r_min=0.5, r_max=5.5))

    def test_empty_and_repeated(self):
        self.assert_same(RatingMatrix.from_triples(3, 4, [], [], []), dict_rating_matrix(3, 4, [], [], []))
        triples = ([2, 0, 2, 0], [1, 3, 1, 3], [4.0, 2.0, 1.5, 3.0])
        got = RatingMatrix.from_triples(3, 4, *triples)
        self.assert_same(got, dict_rating_matrix(3, 4, *triples))
        assert (got.users.tolist(), got.items.tolist(), got.values.tolist()) == ([0, 2], [3, 1], [3.0, 1.5])


class TestIdMap:
    def test_round_trip_identity(self):
        id_map = IdMap()
        for ext in (31, 4, 159, 26):
            id_map.add(ext)
        for ext in (31, 4, 159, 26):
            assert id_map.id_of(id_map.index_of(ext)) == ext

    def test_save_load(self, tmp_path):
        id_map = IdMap()
        for ext in (5, 3, 11):
            id_map.add(ext)
        path = tmp_path / "map.txt"
        id_map.save(path)
        loaded = IdMap.load(path)
        assert len(loaded) == 3
        assert [loaded.id_of(i) for i in range(3)] == [5, 3, 11]

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "map.txt"
        for bad, message in (("7,1,2", "expected"), ("7,2", "non-contiguous index 2")):
            path.write_text(f"5,0\n{bad}\n")
            with pytest.raises(DataFormatError, match=message) as info:
                IdMap.load(path)
            assert info.value.line_no == 2


class TestRatingsRoundTrip:
    def test_save_then_load(self, tmp_path, make_ratings):
        ratings = make_ratings([(0, 0, 1.5), (0, 2, 4.0), (2, 1, 5.0)], 3, 3)
        user_map = IdMap()
        item_map = IdMap()
        for u in range(3):
            user_map.add(100 + u)
        for i in range(3):
            item_map.add(200 + i)
        path = tmp_path / "r.txt"
        save_ratings(ratings, path, user_map, item_map)
        back = load_ratings(path, user_map=IdMap(), item_map=IdMap())
        np.testing.assert_array_equal(back.values, ratings.values)
        assert len(back) == len(ratings)


def edge_map(graph):
    """{(truster, trustee): value} of a graph's stored edges."""
    return {(u, v): t for u, v, t in graph.edges()}


class TestTrustGraph:
    def test_add_and_query(self):
        g = TrustGraph.from_edges(4, [(1, 0, 1.0), (0, 1, 0.5)])
        assert g.num_edges == 2
        assert list(g.edges()) == [(0, 1, 0.5), (1, 0, 1.0)]
        assert g.indptr.tolist() == [0, 1, 2, 2, 2]
        assert g.indices.tolist() == [1, 0]
        assert g.data.tolist() == [0.5, 1.0]

    def test_columns_build_the_same_graph_as_triples(self):
        edges = [(2, 0, 0.3), (0, 1, 0.5), (2, 1, 1.0), (0, 1, 0.9)]
        g = TrustGraph(3, *zip(*edges), self_loops_skipped=4)
        assert list(g.edges()) == list(TrustGraph.from_edges(3, edges).edges())
        assert g.self_loops_skipped == 4

    def test_rejects_self_loop_and_bad_values(self):
        with pytest.raises(ValueError):
            TrustGraph.from_edges(3, [(1, 1, 1.0)])
        with pytest.raises(ValueError):
            TrustGraph.from_edges(3, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            TrustGraph.from_edges(3, [(0, 1, 1.5)])

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            TrustGraph(3, [0, 1], [1], [1.0, 1.0])

    def test_degrees_count_both_directions(self):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (2, 1, 1.0)])
        np.testing.assert_array_equal(g.degrees(), [1, 2, 1])


class TestTrustGraphOracle:
    """TrustGraph against the dict-of-dicts graph it replaced, on random edge sequences."""

    @staticmethod
    def random_edges(rng, n, count, invalid=0.0):
        """Edges with repeats, changed values and interleaved trusters; a share ``invalid`` is bad."""
        edges = []
        for _ in range(count):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u == v and rng.random() >= invalid:
                continue
            if edges and rng.random() < 0.3:
                u, v, _ = edges[int(rng.integers(len(edges)))]
            t = float(rng.choice([0.25, 0.5, 1.0])) if rng.random() < 0.5 else float(rng.uniform(0.01, 1.0))
            if rng.random() < invalid:
                kind = rng.integers(3)
                if kind == 0:
                    t = float(rng.choice([0.0, -0.5, 1.5, np.nan]))
                elif kind == 1:
                    u = int(rng.choice([-1, n]))
                else:
                    v = u
            edges.append((u, v, t))
        return edges

    @staticmethod
    def outcome(build):
        try:
            return build()
        except ValueError as exc:
            return str(exc)

    def test_edges_match_the_oracle_sorted_by_truster(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            edges = self.random_edges(rng, n, int(rng.integers(0, 40)))
            want = DictTrustGraph.from_edges(n, edges, self_loops_skipped=3)
            got = TrustGraph.from_edges(n, edges, self_loops_skipped=3)
            assert list(got.edges()) == sorted(want.edges(), key=lambda e: e[0])
            assert got.num_edges == want.num_edges
            assert got.self_loops_skipped == want.self_loops_skipped == 3
            np.testing.assert_array_equal(got.degrees(), want.degrees())

    def test_grouped_input_matches_the_oracle_unsorted(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            edges = sorted(self.random_edges(rng, n, int(rng.integers(1, 40))), key=lambda e: e[0])
            want = DictTrustGraph.from_edges(n, edges)
            assert list(TrustGraph.from_edges(n, edges).edges()) == list(want.edges())

    def test_errors_match_the_oracle(self):
        rng = np.random.default_rng(2)
        raised = 0
        for _ in range(500):
            n = int(rng.integers(1, 7))
            edges = self.random_edges(rng, n, int(rng.integers(1, 12)), invalid=0.15)
            want = self.outcome(lambda: DictTrustGraph.from_edges(n, edges))
            got = self.outcome(lambda: TrustGraph.from_edges(n, edges))
            if isinstance(want, str):
                raised += 1
                assert got == want
            else:
                assert list(got.edges()) == sorted(want.edges(), key=lambda e: e[0])
        assert raised > 100

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((1, 1, 1.0), "self-loops are not allowed"),
            ((0, 1, 1.5), "trust value 1.5 outside (0, 1]"),
            ((0, 3, 1.0), "endpoint index out of range"),
        ],
    )
    def test_each_error_names_its_case(self, edge, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DictTrustGraph.from_edges(3, [edge])
        with pytest.raises(ValueError, match=re.escape(message)):
            TrustGraph.from_edges(3, [edge])

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_graph(self, n):
        for g in (TrustGraph(n), TrustGraph.from_edges(n, [])):
            assert g.num_edges == 0 and list(g.edges()) == []
            assert g.indptr.tolist() == [0] * (n + 1)
            np.testing.assert_array_equal(g.degrees(), np.zeros(n, dtype=np.int64))

    def test_single_user_admits_no_edge(self):
        assert self.outcome(lambda: TrustGraph.from_edges(1, [(0, 0, 1.0)])) == "self-loops are not allowed"
        assert self.outcome(lambda: TrustGraph.from_edges(1, [(0, 1, 1.0)])) == "endpoint index out of range"


class TestLoadTrust:
    def test_missing_value_defaults_to_one(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1,2\n2,3,0.25\n")
        user_map = IdMap()
        graph = load_trust(path, user_map)
        ids = {(user_map.id_of(u), user_map.id_of(v)): t for (u, v), t in edge_map(graph).items()}
        assert ids == {(1, 2): 1.0, (2, 3): 0.25}

    def test_self_loop_line_skipped_with_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("5,5\n5,6\n")
        graph = load_trust(path, IdMap())
        assert graph.num_edges == 1
        assert graph.self_loops_skipped == 1

    def test_trust_only_users_appended_to_map(self, tmp_path):
        ratings_path = tmp_path / "r.txt"
        ratings_path.write_text("1,1,3\n2,1,4\n")
        user_map = IdMap()
        ratings = load_ratings(ratings_path, user_map=user_map, item_map=IdMap())
        trust_path = tmp_path / "t.txt"
        trust_path.write_text("1,77\n")
        graph = load_trust(trust_path, user_map)
        assert ratings.num_users == 2
        assert graph.num_users == 3
        assert user_map.index_of(77) == 2

    def test_unparseable_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.txt"
        for bad in ("not trust", "1,3,0.5,7", "1,3,1.5"):
            path.write_text(f"1,2\n{bad}\n")
            with pytest.raises(DataFormatError) as info:
                load_trust(path, IdMap())
            assert info.value.line_no == 2

    def test_round_trip(self, tmp_path):
        g = TrustGraph.from_edges(3, [(0, 2, 0.75), (2, 1, 1.0)])
        user_map = IdMap()
        for ext in (10, 11, 12):
            user_map.add(ext)
        path = tmp_path / "t.txt"
        save_trust(g, path, user_map)
        back = load_trust(path, user_map)
        assert edge_map(back) == {(0, 2): 0.75, (2, 1): 1.0}


class TestSplit:
    def test_counts(self, make_ratings):
        triples = [(u, i, 3.0) for u in range(2) for i in range(5)]
        ratings = make_ratings(triples, 2, 5)
        train, test = split(ratings, SplitSpec(0.8, 42))
        assert len(train) == 8
        assert len(test) == 2

    def test_deterministic(self, make_ratings):
        triples = [(u, i, float(1 + (u + i) % 5)) for u in range(6) for i in range(7)]
        ratings = make_ratings(triples, 6, 7)
        a_train, a_test = split(ratings, SplitSpec(0.8, 42))
        b_train, b_test = split(ratings, SplitSpec(0.8, 42))
        np.testing.assert_array_equal(a_train.users, b_train.users)
        np.testing.assert_array_equal(a_test.items, b_test.items)
        np.testing.assert_array_equal(a_train.values, b_train.values)

    def test_partition_is_exact(self, make_ratings):
        rng = np.random.default_rng(3)
        triples = [(u, i, float(rng.integers(1, 6))) for u in range(9) for i in range(8)]
        ratings = make_ratings(triples, 9, 8)
        train, test = split(ratings, SplitSpec(0.7, 11))
        seen = set(zip(train.users.tolist(), train.items.tolist()))
        seen |= set(zip(test.users.tolist(), test.items.tolist()))
        assert len(seen) == len(train) + len(test) == len(ratings)
        assert seen == set(zip(ratings.users.tolist(), ratings.items.tolist()))

    def test_large_count_rounding(self):
        # round(0.8 * 284086) must land on 227269 / 56817
        users = np.repeat(np.arange(474), 600)[:284086]
        items = np.tile(np.arange(600), 474)[:284086]
        ratings = RatingMatrix(474, 600, users, items, np.full(284086, 3.0))
        train, test = split(ratings, SplitSpec(0.8, 0))
        assert len(train) == 227269
        assert len(test) == 56817

    def test_dimensions_preserved(self, make_ratings):
        ratings = make_ratings([(0, 0, 2.0), (4, 9, 3.0), (2, 3, 4.0)], 5, 10)
        train, test = split(ratings, SplitSpec(0.5, 1))
        assert train.num_users == test.num_users == 5
        assert train.num_items == test.num_items == 10


class TestGlobalMean:
    def test_hand_values(self, make_ratings):
        assert global_mean(make_ratings([(0, 0, 5.0), (0, 1, 3.0), (1, 0, 4.0)], 2, 2)) == 4.0
        assert global_mean(make_ratings([(0, 0, 2.0)], 1, 1)) == 2.0
        assert global_mean(make_ratings([(0, 0, 1.0), (0, 1, 5.0)], 1, 2)) == 3.0

    def test_empty_matrix_rejected(self, make_ratings):
        ratings = make_ratings([], 2, 2)
        with pytest.raises(ValueError):
            global_mean(ratings)


class TestValidate:
    def test_duplicate_pair_rejected(self):
        ratings = RatingMatrix(2, 2, [0, 0], [1, 1], [2.0, 3.0])
        with pytest.raises(ValueError):
            ratings.validate()

    def test_out_of_range_index_rejected(self):
        for users, items, values, message in (
            ([0, 2], [0, 1], [2.0, 3.0], "user index out of range"),
            ([0, 1], [0], [2.0, 3.0], "equal length"),
            ([0, 1], [0, 2], [2.0, 3.0], "item index out of range"),
            ([0, 1], [0, 1], [2.0, 6.0], "rating outside scale"),
        ):
            with pytest.raises(ValueError, match=message):
                RatingMatrix(2, 2, users, items, values).validate()
        ratings = RatingMatrix(2, 2, [0, 1], [0, 1], [2.0, 3.0])
        graph = TrustGraph.from_edges(2, [(0, 1, 1.0)])
        for call, message in (
            (lambda: ratings.with_num_users(1), "shrink"),
            (lambda: split(RatingMatrix(2, 2, [], [], []), SplitSpec()), "empty"),
            (lambda: subsample_top_trust_users(ratings, graph, 0), "count"),
            (lambda: subsample_top_trust_users(ratings, graph, 3), "count"),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestSubsample:
    def test_keeps_highest_degree_users(self, make_ratings):
        # degrees: user0=1, user1=3, user2=2, user3=0
        g = TrustGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        triples = [(u, u % 2, float(u + 1)) for u in range(4)]
        ratings = make_ratings(triples, 4, 2)
        sub_ratings, sub_graph, kept = subsample_top_trust_users(ratings, g, 2)
        assert kept.tolist() == [1, 2]
        assert sub_ratings.num_users == 2
        assert sub_graph.num_users == 2
        # user1 -> index 0, user2 -> index 1; their mutual edges survive
        assert edge_map(sub_graph) == {(0, 1): 1.0, (1, 0): 1.0}

    def test_all_ratings_of_kept_users_survive(self, make_ratings):
        g = TrustGraph.from_edges(3, [(0, 2, 1.0), (2, 0, 1.0)])
        triples = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (2, 1, 4.0)]
        ratings = make_ratings(triples, 3, 2)
        sub_ratings, _, kept = subsample_top_trust_users(ratings, g, 2)
        assert kept.tolist() == [0, 2]
        assert len(sub_ratings) == 3
        assert sub_ratings.num_items == ratings.num_items

    def test_degree_ties_break_toward_smaller_index(self, make_ratings):
        g = TrustGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
        # degrees: 0 -> 3, 1 -> 2, 2 -> 1
        ratings = make_ratings([(u, 0, 2.0) for u in range(3)], 3, 1)
        _, _, kept = subsample_top_trust_users(ratings, g, 1)
        assert kept.tolist() == [0]

    def test_mismatched_user_counts_name_both(self, make_ratings):
        # a trust-only user 3 widens the graph past the ratings' 3 users
        g = TrustGraph.from_edges(4, [(3, 0, 1.0), (0, 3, 1.0), (1, 3, 1.0)])
        ratings = make_ratings([(u, 0, 2.0) for u in range(3)], 3, 1)
        with pytest.raises(ValueError, match=r"4 users.*have 3"):
            subsample_top_trust_users(ratings, g, 2)
        narrow = TrustGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match=r"2 users.*have 3"):
            subsample_top_trust_users(ratings, narrow, 2)
