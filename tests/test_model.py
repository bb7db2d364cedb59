import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from trustrec import model as model_module
from trustrec.data import RatingMatrix
from trustrec.graph import LeaderTable, PropagatedTrust
from trustrec.model import (
    HyperParams,
    ModelParams,
    TrainingContext,
    conflict_free_levels,
    gradients,
    init_params,
    load_params,
    objective,
    predict,
    save_params,
    sgd_epoch,
    train,
)
from trustrec.synth import planted_factors

from oracles import central_difference, gradient_gap, plain_mf_objective, reference_sgd_epoch


# (_DENSE_SHARE, the operator type it forces) for each form
DENSE_AND_SPARSE = ((10**9, np.ndarray), (0, sparse.csr_matrix))


def one_rating(value=4.0, m=1, n=1):
    return RatingMatrix(
        m, n, np.array([0], dtype=np.int64), np.array([0], dtype=np.int64), np.array([value])
    ).validate()


def empty_ratings(m, n):
    return RatingMatrix(
        m, n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    ).validate()


def plain_hp(**overrides):
    base = dict(
        k=2, learning_rate=0.01, lam_p=0.0, lam_q=0.0, lam_w=0.0, lam_t=0.0, lam_c=0.0,
        epochs=1, seed=0,
    )
    base.update(overrides)
    return HyperParams(**base)


class TestParams:
    def test_factor_dimension_must_agree(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros((3, 4)), np.zeros((2, 5)), np.zeros(3))

    def test_shapes_must_be_matrix_matrix_vector(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros(3), np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ValueError):
            ModelParams(np.zeros((3, 4)), np.zeros((3, 5)), np.zeros((3, 1)))

    def test_dimension_properties(self):
        mp = ModelParams(np.zeros((3, 4)), np.zeros((3, 5)), np.zeros(3))
        assert (mp.k, mp.num_users, mp.num_items) == (3, 4, 5)

    def test_copy_is_independent(self):
        mp = ModelParams(np.ones((2, 2)), np.ones((2, 2)), np.ones(2))
        other = mp.copy()
        other.P[0, 0] = 9.0
        assert mp.P[0, 0] == 1.0

    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            HyperParams(k=0)
        with pytest.raises(ValueError):
            HyperParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            HyperParams(lam_t=-0.1)
        with pytest.raises(ValueError):
            HyperParams(epochs=-1)

    def test_context_user_count_mismatches(self, make_ratings):
        ratings = make_ratings([(0, 0, 3.0), (1, 1, 4.0)], 2, 2)
        bad_trust = PropagatedTrust([0, 2], [1, 0], [0.5, 0.2], 3)
        with pytest.raises(ValueError):
            TrainingContext(train=ratings, trust=bad_trust).validate()
        with pytest.raises(ValueError):
            TrainingContext(train=ratings, embeddings=np.zeros((3, 2))).validate()
        with pytest.raises(ValueError):
            TrainingContext(
                train=ratings,
                leaders=LeaderTable(np.array([0]), np.array([0, 0, 0])),
            ).validate()


    def test_replaced_context_builds_its_own_operator(self, make_context):
        # the ablation ladder makes its rungs with dataclasses.replace; a rung
        # without trust or leaders must not inherit the full context's operator
        ctx = make_context(np.random.default_rng(3), 8, 5, 2)
        assert ctx.social_operator(0.1, 0.1) is not None
        reduced = replace(ctx, trust=None, leaders=None)
        assert reduced.social_operator(0.1, 0.1) is None
        assert ctx.social_operator(0.1, 0.1) is not None


class TestPredict:
    def test_hand_value(self):
        params = ModelParams(
            np.array([[1.0], [0.0]]), np.array([[2.0], [3.0]]), np.array([1.0, 1.0])
        )
        table = np.array([[0.0, 1.0]])
        assert predict(params, table, [0], [0]).tolist() == [5.0]

    def test_zero_weights_reduce_to_plain_factors(self):
        rng = np.random.default_rng(0)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)), np.zeros(3))
        table = rng.normal(size=(4, 3))
        users, items = np.divmod(np.arange(20), 5)
        np.testing.assert_allclose(
            predict(params, table, users, items), (params.P.T @ params.Q).ravel(), rtol=0, atol=1e-15
        )

    def test_zero_factors_predict_zero(self):
        params = ModelParams(np.zeros((2, 1)), np.ones((2, 1)), np.ones(2))
        table = np.zeros((1, 2))
        assert predict(params, table, [0], [0]).tolist() == [0.0]

    def test_no_embedding_table_means_plain_dot(self):
        params = ModelParams(
            np.array([[2.0], [1.0]]), np.array([[1.0], [3.0]]), np.array([5.0, 5.0])
        )
        assert predict(params, None, [0], [0]).tolist() == [5.0]

    def test_index_out_of_range(self):
        params = ModelParams(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(IndexError):
            predict(params, None, [0, 3], [0, 0])
        with pytest.raises(IndexError):
            predict(params, None, [0, 0], [0, 4])
        with pytest.raises(IndexError):
            predict(params, None, [-1, 0], [0, 0])
        with pytest.raises(IndexError):
            predict(params, None, [0, 0], [0, -1])
        assert predict(params, None, [], []).shape == (0,)

    def test_vectorized_matches_scalar(self, make_context):
        rng = np.random.default_rng(2)
        ctx = make_context(rng, 6, 5, 3)
        params = ModelParams(rng.normal(size=(3, 6)), rng.normal(size=(3, 5)), rng.normal(size=3))
        got = predict(params, ctx.embeddings, ctx.train.users, ctx.train.items)
        expected = [
            float((params.P[:, u] + params.W * ctx.embeddings[u]) @ params.Q[:, i])
            for u, i in zip(ctx.train.users, ctx.train.items)
        ]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestObjective:
    def test_perfect_fit_no_penalties_is_zero(self):
        ratings = one_rating(value=4.0)
        params = ModelParams(np.array([[2.0], [0.0]]), np.array([[2.0], [1.0]]), np.zeros(2))
        assert objective(params, TrainingContext(train=ratings), plain_hp()) == 0.0

    def test_value_matches_independent_loop(self, make_context):
        rng = np.random.default_rng(9)
        ctx = make_context(rng, 8, 6, 3, with_trust=False, with_leaders=False, with_embeddings=False)
        params = ModelParams(rng.normal(size=(3, 8)), rng.normal(size=(3, 6)), np.zeros(3))
        hp = plain_hp(k=3, lam_p=0.2, lam_q=0.3)
        expected = plain_mf_objective(
            params.P, params.Q, ctx.train.users, ctx.train.items, ctx.train.values, 0.2, 0.3
        )
        assert objective(params, ctx, hp) == pytest.approx(expected, rel=1e-12)

    def test_disabled_terms_leak_nothing(self, make_context):
        # trust, leaders, and embeddings all present but their weights zero:
        # the value must be bit-for-bit the plain squared-error-plus-ridge loss
        rng = np.random.default_rng(10)
        ctx = make_context(rng, 8, 6, 3)
        params = ModelParams(rng.normal(size=(3, 8)), rng.normal(size=(3, 6)), np.zeros(3))
        hp = plain_hp(k=3, lam_p=0.2, lam_q=0.3)
        train_ = ctx.train
        err = (params.P[:, train_.users] * params.Q[:, train_.items]).sum(axis=0) - train_.values
        standalone = float(
            0.5 * (err * err).sum()
            + 0.5 * 0.2 * (params.P * params.P).sum()
            + 0.5 * 0.3 * (params.Q * params.Q).sum()
        )
        assert objective(params, ctx, hp) == standalone

    def test_own_leader_and_no_trust_add_nothing(self):
        ratings = one_rating(value=3.0)
        leaders = LeaderTable(np.array([0]), np.array([0]))
        params = ModelParams(np.array([[1.0], [2.0]]), np.array([[0.5], [0.5]]), np.zeros(2))
        with_terms = objective(
            params,
            TrainingContext(train=ratings, leaders=leaders),
            plain_hp(lam_t=5.0, lam_c=5.0),
        )
        without = objective(params, TrainingContext(train=ratings), plain_hp())
        assert with_terms == without

    def test_trust_term_vanishes_at_equal_factors(self, make_ratings):
        ratings = make_ratings([(0, 0, 3.0), (1, 1, 2.0), (2, 0, 4.0)], 3, 2)
        trust = PropagatedTrust([0, 1, 2], [1, 2, 0], [0.9, 0.4, 0.7], 3)
        column = np.array([0.7, -0.2])
        params = ModelParams(
            np.tile(column[:, None], (1, 3)), np.random.default_rng(1).normal(size=(2, 2)),
            np.zeros(2),
        )
        ctx = TrainingContext(train=ratings, trust=trust)
        assert objective(params, ctx, plain_hp(lam_t=3.0)) == objective(params, ctx, plain_hp())
        with_term = gradients(params, ctx, plain_hp(lam_t=3.0))
        without = gradients(params, ctx, plain_hp())
        for a, b in zip(with_term, without):
            np.testing.assert_array_equal(a, b)


class TestTrustTermBlocks:
    @staticmethod
    def trust_case(rng, num_pairs, k, m=40):
        ratings = RatingMatrix(m, 3, np.arange(m), np.arange(m) % 3, rng.uniform(1.0, 5.0, m)).validate()
        trust = PropagatedTrust(
            rng.integers(0, m, num_pairs), rng.integers(0, m, num_pairs),
            rng.uniform(0.1, 1.0, num_pairs), m,
        )
        params = ModelParams(rng.normal(size=(k, m)), rng.normal(size=(k, 3)), rng.normal(size=k))
        return params, ratings, trust

    @pytest.mark.parametrize("block", [model_module._PAIR_BLOCK, 7])
    @pytest.mark.parametrize("k", [3, 10])
    def test_bit_equal_to_unchunked_sum(self, monkeypatch, block, k):
        monkeypatch.setattr(model_module, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(k)
        for num_pairs in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            params, ratings, trust = self.trust_case(rng, num_pairs, k)
            hp = plain_hp(k=k, lam_p=0.1, lam_q=0.2, lam_t=0.3)
            without = objective(params, TrainingContext(train=ratings), hp)
            expected = without
            if num_pairs:
                diff = params.P[:, trust.truster] - params.P[:, trust.trustee]
                expected = without + 0.5 * 0.3 * (trust.values * (diff * diff).sum(axis=0)).sum()
            got = objective(params, TrainingContext(train=ratings, trust=trust), hp)
            assert got == expected, f"{num_pairs} pairs"

    def test_trust_term_memory_is_per_pair_scalar(self):
        # unchunked, the term built two gathered k × pairs arrays, their
        # difference and its square, three of them alive at once (92 MB here)
        num_pairs, k = 400_000, 10
        params, ratings, trust = self.trust_case(np.random.default_rng(0), num_pairs, k, m=1000)
        ctx = TrainingContext(train=ratings, trust=trust)
        hp = plain_hp(k=k, lam_t=0.3)
        tracemalloc.start()
        try:
            objective(params, ctx, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unchunked_mb = 4 * k * 8 * num_pairs / 2**20
        assert peak < 2 * 8 * num_pairs, f"peak {peak / 2**20:.1f} MB against {unchunked_mb:.0f} MB unchunked"


class TestGradients:
    def test_flat_point_is_zero(self):
        ctx = TrainingContext(train=empty_ratings(3, 2))
        params = ModelParams(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
        for g in gradients(params, ctx, plain_hp()):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_finite_differences(self, make_context, seed):
        rng = np.random.default_rng(seed)
        ctx = make_context(rng, 7, 5, 3)
        params = ModelParams(
            rng.normal(0, 0.5, size=(3, 7)), rng.normal(0, 0.5, size=(3, 5)),
            rng.normal(0, 0.5, size=3),
        )
        hp = HyperParams(
            k=3, learning_rate=0.01, lam_p=0.11, lam_q=0.07, lam_w=0.05, lam_t=0.09,
            lam_c=0.13, epochs=1, seed=seed,
        )
        gP, gQ, gW = gradients(params, ctx, hp)

        def loss_at_p(flat):
            return objective(ModelParams(flat.reshape(3, 7), params.Q, params.W), ctx, hp)

        def loss_at_q(flat):
            return objective(ModelParams(params.P, flat.reshape(3, 5), params.W), ctx, hp)

        def loss_at_w(flat):
            return objective(ModelParams(params.P, params.Q, flat), ctx, hp)

        assert gradient_gap(gP.ravel(), central_difference(loss_at_p, params.P.ravel())) < 1e-4
        assert gradient_gap(gQ.ravel(), central_difference(loss_at_q, params.Q.ravel())) < 1e-4
        assert gradient_gap(gW, central_difference(loss_at_w, params.W)) < 1e-4

    def test_reduced_contexts_still_match_differences(self, make_context):
        rng = np.random.default_rng(17)
        ctx = make_context(rng, 6, 4, 2, with_trust=False, with_embeddings=False)
        params = ModelParams(
            rng.normal(0, 0.5, size=(2, 6)), rng.normal(0, 0.5, size=(2, 4)),
            rng.normal(0, 0.5, size=2),
        )
        hp = plain_hp(lam_p=0.1, lam_q=0.1, lam_c=0.2)

        def loss_at_p(flat):
            return objective(ModelParams(flat.reshape(2, 6), params.Q, params.W), ctx, hp)

        gP = gradients(params, ctx, hp)[0]
        assert gradient_gap(gP.ravel(), central_difference(loss_at_p, params.P.ravel())) < 1e-4

    def test_ridge_component_linear_in_lam_p(self, make_ratings):
        rng = np.random.default_rng(5)
        ratings = make_ratings([(0, 0, 3.0), (1, 1, 4.0), (2, 2, 2.0)], 3, 3)
        ctx = TrainingContext(train=ratings)
        params = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=2))
        low = gradients(params, ctx, plain_hp(lam_p=0.3))[0]
        high = gradients(params, ctx, plain_hp(lam_p=0.6))[0]
        np.testing.assert_allclose(high - low, 0.3 * params.P, rtol=0, atol=1e-15)

    def test_leader_pull_shrinks_member_distances(self):
        # only the community term active: a small explicit step must bring
        # every non-leader strictly closer to its leader
        ctx = TrainingContext(
            train=empty_ratings(4, 3),
            leaders=LeaderTable(np.array([0, 2]), np.array([0, 0, 1, 1])),
        )
        hp = plain_hp(k=3, lam_c=1.0)
        rng = np.random.default_rng(7)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=(3, 3)), np.zeros(3))
        gP = gradients(params, ctx, hp)[0]
        stepped = params.P - 0.05 * gP
        for u, head in ((1, 0), (3, 2)):
            before = np.linalg.norm(params.P[:, u] - params.P[:, head])
            after = np.linalg.norm(stepped[:, u] - stepped[:, head])
            assert after < before


class TestSgdEpoch:
    def test_single_rating_hand_step(self):
        ctx = TrainingContext(train=one_rating(value=4.0))
        hp = plain_hp(learning_rate=0.1)
        P0 = np.array([[0.5], [0.2]])
        Q0 = np.array([[0.3], [0.1]])
        out = sgd_epoch(ModelParams(P0.copy(), Q0.copy(), np.zeros(2)), ctx, hp)
        e = float(P0[:, 0] @ Q0[:, 0]) - 4.0
        np.testing.assert_array_equal(out.P[:, 0], P0[:, 0] - 0.1 * e * Q0[:, 0])
        np.testing.assert_array_equal(out.Q[:, 0], Q0[:, 0] - 0.1 * e * P0[:, 0])
        np.testing.assert_array_equal(out.W, np.zeros(2))

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            plain_hp(learning_rate=0.0)

    def test_vanishing_step_leaves_params_unchanged(self, make_context):
        # the zero-step limit: a step too small to perturb any float64 entry
        # must return the input exactly
        rng = np.random.default_rng(3)
        ctx = make_context(rng, 5, 4, 2)
        hp = plain_hp(learning_rate=1e-300, lam_p=0.1, lam_q=0.1, lam_w=0.1, lam_t=0.1, lam_c=0.1)
        params = ModelParams(rng.normal(size=(2, 5)), rng.normal(size=(2, 4)), rng.normal(size=2))
        out = sgd_epoch(params, ctx, hp)
        np.testing.assert_array_equal(out.P, params.P)
        np.testing.assert_array_equal(out.Q, params.Q)
        np.testing.assert_array_equal(out.W, params.W)

    def test_same_seed_same_result(self, make_context):
        rng = np.random.default_rng(4)
        ctx = make_context(rng, 6, 5, 3)
        hp = HyperParams(
            k=3, learning_rate=0.02, lam_p=0.1, lam_q=0.1, lam_w=0.1, lam_t=0.1, lam_c=0.1,
            epochs=1, seed=11,
        )
        params = ModelParams(rng.normal(size=(3, 6)), rng.normal(size=(3, 5)), np.zeros(3))
        a = sgd_epoch(params, ctx, hp)
        b = sgd_epoch(params, ctx, hp)
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.Q, b.Q)
        np.testing.assert_array_equal(a.W, b.W)

    def test_input_params_not_mutated(self, make_context):
        rng = np.random.default_rng(6)
        ctx = make_context(rng, 5, 4, 2)
        params = ModelParams(rng.normal(size=(2, 5)), rng.normal(size=(2, 4)), np.zeros(2))
        snapshot = params.copy()
        sgd_epoch(params, ctx, plain_hp(learning_rate=0.05))
        np.testing.assert_array_equal(params.P, snapshot.P)
        np.testing.assert_array_equal(params.Q, snapshot.Q)

    def test_full_batch_descent_is_monotone(self, make_context):
        # explicit gradient descent at a small step must never increase the
        # objective; exercises every term against the analytic gradients
        rng = np.random.default_rng(3)
        ctx = make_context(rng, 12, 9, 4)
        hp = HyperParams(
            k=4, learning_rate=1e-4, lam_p=0.1, lam_q=0.1, lam_w=0.1, lam_t=0.1, lam_c=0.1,
            epochs=1, seed=3,
        )
        params = init_params(12, 9, hp, np.random.default_rng(3))
        values = [objective(params, ctx, hp)]
        for _ in range(200):
            gP, gQ, gW = gradients(params, ctx, hp)
            params = ModelParams(
                params.P - hp.learning_rate * gP,
                params.Q - hp.learning_rate * gQ,
                params.W - hp.learning_rate * gW,
            )
            values.append(objective(params, ctx, hp))
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestLevelSchedule:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_levels_are_conflict_free_and_keep_each_order(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 7, size=200)
        items = rng.integers(0, 5, size=200)
        levels = conflict_free_levels(users, items)
        np.testing.assert_array_equal(np.sort(np.concatenate(levels)), np.arange(200))
        for level in levels:
            assert len(set(users[level].tolist())) == len(level)
            assert len(set(items[level].tolist())) == len(level)
        visited = np.concatenate(levels)
        for keys in (users, items):
            for key in np.unique(keys):
                mine = visited[keys[visited] == key]
                np.testing.assert_array_equal(mine, np.flatnonzero(keys == key))

    def test_each_rating_goes_one_past_its_latest_conflict(self):
        # (user, item) = (0,0) (0,1) (1,1) (2,2) (2,0): levels 1, 2, 3, 1, 2
        levels = conflict_free_levels(np.array([0, 0, 1, 2, 2]), np.array([0, 1, 1, 2, 0]))
        assert [level.tolist() for level in levels] == [[0, 3], [1, 4], [2]]

    def test_empty_sequence_has_no_levels(self):
        assert conflict_free_levels(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == []


class TestLevelScheduledEpoch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_plain_contexts_match_the_per_rating_loop(self, make_context, seed):
        # without trust, leaders or embeddings a level-scheduled epoch is a
        # reordering of independent updates: only dot-product rounding differs
        rng = np.random.default_rng(seed)
        ctx = make_context(rng, 15, 12, 3, with_trust=False, with_leaders=False, with_embeddings=False)
        hp = HyperParams(
            k=3, learning_rate=0.05, lam_p=0.1, lam_q=0.2, lam_w=0.1, lam_t=0.1, lam_c=0.1,
            epochs=3, seed=seed,
        )
        start = init_params(15, 12, hp)
        mine, oracle = start, start
        rng_mine, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            mine = sgd_epoch(mine, ctx, hp, rng_mine)
            oracle = reference_sgd_epoch(oracle, ctx, hp, rng_oracle)
        np.testing.assert_allclose(mine.P, oracle.P, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mine.Q, oracle.Q, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(mine.W, np.zeros(3))
        np.testing.assert_array_equal(oracle.W, np.zeros(3))

    def test_switched_off_social_terms_match_the_per_rating_loop(self, make_context):
        # trust and leaders present with zero weights are plain MF too
        rng = np.random.default_rng(5)
        ctx = make_context(rng, 12, 10, 3, with_embeddings=False)
        hp = plain_hp(k=3, learning_rate=0.05, lam_p=0.1, lam_q=0.1, seed=5)
        start = init_params(12, 10, hp)
        mine = sgd_epoch(start, ctx, hp, np.random.default_rng(5))
        oracle = reference_sgd_epoch(start, ctx, hp, np.random.default_rng(5))
        np.testing.assert_allclose(mine.P, oracle.P, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mine.Q, oracle.Q, rtol=1e-12, atol=0)

    def test_full_context_stays_near_the_per_rating_loop(self, make_context):
        # level-start partner values and the per-level implicit W step differ
        # from the sequential loop by terms of second order in the step, so
        # the gap relative to the epoch's own move shrinks in step with lr
        rng = np.random.default_rng(6)
        ctx = make_context(rng, 15, 12, 3)
        start = ModelParams(
            rng.normal(0, 0.3, size=(3, 15)), rng.normal(0, 0.3, size=(3, 12)),
            rng.normal(0, 0.3, size=3),
        )
        for lr in (1e-2, 1e-3, 1e-4):
            hp = HyperParams(
                k=3, learning_rate=lr, lam_p=0.1, lam_q=0.1, lam_w=0.1, lam_t=0.1, lam_c=0.1,
                epochs=1, seed=6,
            )
            mine = sgd_epoch(start, ctx, hp)
            oracle = reference_sgd_epoch(start, ctx, hp)
            for got, want, was in zip(
                (mine.P, mine.Q, mine.W), (oracle.P, oracle.Q, oracle.W), (start.P, start.Q, start.W)
            ):
                assert np.abs(got - want).max() < lr * np.abs(want - was).max()

    def test_social_operator_is_the_social_gradient(self, make_context, monkeypatch):
        rng = np.random.default_rng(8)
        ctx = make_context(rng, 10, 6, 3)
        params = ModelParams(rng.normal(size=(3, 10)), rng.normal(size=(3, 6)), rng.normal(size=3))
        hp = plain_hp(k=3, lam_t=0.3, lam_c=0.7)
        social = gradients(params, ctx, hp)[0] - gradients(params, ctx, plain_hp(k=3))[0]
        for share, form in DENSE_AND_SPARSE:
            monkeypatch.setattr(model_module, "_DENSE_SHARE", share)
            fresh = replace(ctx)
            op = fresh.social_operator(0.3, 0.7)
            assert isinstance(op, form)
            np.testing.assert_allclose((op @ params.P.T).T, social, rtol=0, atol=1e-12)
            assert fresh.social_operator(0.0, 0.0) is None

    def test_operator_form_follows_its_share_of_the_matrix(self, make_context, monkeypatch):
        # entries count both directions of each trust pair and member–leader edge
        rng = np.random.default_rng(4)
        ctx = make_context(rng, 30, 6, 3)
        m, entries = 30, 2 * (len(ctx.pair_u) + len(ctx.members))
        assert model_module._DENSE_SHARE * entries >= m * m
        dense = ctx.social_operator(0.3, 0.7)
        assert isinstance(dense, np.ndarray) and dense.dtype == np.float64 and dense.shape == (m, m)
        kept = np.flatnonzero(rng.random(len(ctx.pair_u)) < 0.05)
        few_pairs = PropagatedTrust(ctx.pair_u[kept], ctx.pair_v[kept], ctx.pair_t[kept], m)
        thin = replace(ctx, trust=few_pairs, leaders=None)
        assert model_module._DENSE_SHARE * 2 * len(kept) < m * m
        assert isinstance(thin.social_operator(0.3, 0.7), sparse.csr_matrix)
        # the CSR build of the dense-side context agrees entry for entry; only
        # the order in which duplicate edges and row sums add up differs
        monkeypatch.setattr(model_module, "_DENSE_SHARE", 0)
        csr = replace(ctx).social_operator(0.3, 0.7).toarray()
        np.testing.assert_allclose(dense, csr, rtol=1e-15, atol=1e-15)
        assert np.array_equal(dense != 0, csr != 0)

    def test_dense_and_sparse_operators_train_alike(self, make_context, monkeypatch):
        rng = np.random.default_rng(7)
        ctx = make_context(rng, 30, 12, 3)
        hp = HyperParams(
            k=3, learning_rate=0.02, lam_p=0.1, lam_q=0.1, lam_w=0.1, lam_t=0.1, lam_c=0.1,
            epochs=1, seed=7,
        )
        start = init_params(30, 12, hp)
        out = []
        for share, _ in DENSE_AND_SPARSE:
            monkeypatch.setattr(model_module, "_DENSE_SHARE", share)
            params = start
            for epoch in range(3):
                params = sgd_epoch(params, replace(ctx), hp, np.random.default_rng(epoch))
            out.append(params)
        for got, want in zip((out[0].P, out[0].Q, out[0].W), (out[1].P, out[1].Q, out[1].W)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_q_step_is_guarded(self):
        # one rating, so P's step and Q's step both read the start values
        ctx = TrainingContext(train=one_rating(value=5.0))
        for lr, p, q in ((0.6, 2.0, 2.0), (0.05, 2.0, 0.5)):
            hp = plain_hp(k=1, learning_rate=lr)
            out = sgd_epoch(ModelParams([[p]], [[q]], [0.0]), ctx, hp)
            e = p * q - 5.0
            assert out.P[0, 0] == p - lr * (e * q)
            assert out.Q[0, 0] == q - lr * (e / max(1.0, lr * (p * p)) * p)

    def test_shared_gate_takes_a_stable_step(self):
        # 200 ratings on distinct users and items form a single level coupled
        # only through W; lr·‖ZᵀZ‖ is far above 2, where a summed explicit
        # step on W overshoots
        rng = np.random.default_rng(0)
        count, k = 200, 3
        idx = np.arange(count)
        ratings = RatingMatrix(count, count, idx, idx, rng.uniform(1.0, 5.0, size=count)).validate()
        ctx = TrainingContext(train=ratings, embeddings=rng.normal(0, 10.0, size=(count, k)))
        hp = plain_hp(k=k, learning_rate=0.01, lam_p=0.1, lam_q=0.1, lam_w=0.1)
        params = ModelParams(np.zeros((k, count)), rng.normal(0, 1.0, size=(k, count)), np.zeros(k))
        z = ctx.embeddings * params.Q.T
        assert hp.learning_rate * np.linalg.norm(z.T @ z, 2) > 100
        before = objective(params, ctx, hp)
        for _ in range(5):
            params = sgd_epoch(params, ctx, hp)
            assert np.all(np.isfinite(params.W))
            after = objective(params, ctx, hp)
            assert after < before
            before = after

    def test_non_finite_input_gives_nan_not_an_error(self, make_context):
        rng = np.random.default_rng(2)
        ctx = make_context(rng, 6, 5, 2)
        params = ModelParams(rng.normal(size=(2, 6)), rng.normal(size=(2, 5)), np.array([np.inf, 1.0]))
        with np.errstate(all="ignore"):
            out = sgd_epoch(params, ctx, plain_hp(lam_w=0.1))
        assert not np.all(np.isfinite(out.W))


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        ratings = one_rating(value=4.0)
        hp = plain_hp(epochs=0)
        init_P = np.array([[0.4], [0.1]])
        init_Q = np.array([[0.2], [0.3]])
        best, history = train(TrainingContext(train=ratings), hp, init_P, init_Q)
        assert history == []
        np.testing.assert_array_equal(best.P, init_P)
        np.testing.assert_array_equal(best.Q, init_Q)
        np.testing.assert_array_equal(best.W, np.zeros(2))

    def test_init_shape_mismatch(self):
        ratings = one_rating(value=4.0, m=2, n=3)
        hp = plain_hp()
        with pytest.raises(ValueError):
            train(TrainingContext(train=ratings), hp, np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            train(TrainingContext(train=ratings), hp, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_embedding_width_must_equal_k(self):
        ratings = one_rating(value=4.0, m=2, n=3)
        ctx = TrainingContext(train=ratings, embeddings=np.zeros((2, 3)))
        for epochs in (0, 1):
            with pytest.raises(ValueError, match="embedding dimension"):
                train(ctx, plain_hp(epochs=epochs), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_early_stop_after_five_rising_epochs(self, monkeypatch):
        # epochs that double every factor make the objective rise every
        # epoch, so training stops at five rises
        monkeypatch.setattr(
            model_module, "sgd_epoch", lambda params, *_: ModelParams(2 * params.P, 2 * params.Q, params.W)
        )
        ctx = TrainingContext(train=one_rating(value=5.0))
        hp = plain_hp(k=1, epochs=40)
        best, history = train(ctx, hp, np.array([[2.0]]), np.array([[2.0]]))
        assert len(history) == 6
        assert all(b > a for a, b in zip(history, history[1:]))
        np.testing.assert_array_equal(best.P, np.array([[2.0]]))
        np.testing.assert_array_equal(best.Q, np.array([[2.0]]))

    def test_returns_best_objective_seen(self):
        ratings, _, _ = planted_factors(30, 30, k=3, density=0.5, noise=0.1, seed=1)
        ctx = TrainingContext(train=ratings)
        hp = HyperParams(
            k=3, learning_rate=0.08, lam_p=0.01, lam_q=0.01, lam_w=0.0, lam_t=0.0, lam_c=0.0,
            epochs=25, seed=1,
        )
        start = init_params(30, 30, hp)
        best, history = train(ctx, hp, start.P, start.Q)
        at_init = objective(ModelParams(start.P, start.Q, np.zeros(3)), ctx, hp)
        assert objective(best, ctx, hp) == min([at_init] + history)

    def test_planted_factors_recovered_to_noise_level(self):
        ratings, _, _ = planted_factors(40, 40, k=4, density=0.6, noise=0.1, seed=2)
        ctx = TrainingContext(train=ratings)
        hp = HyperParams(
            k=4, learning_rate=0.03, lam_p=0.02, lam_q=0.02, lam_w=0.0, lam_t=0.0, lam_c=0.0,
            epochs=150, seed=2,
        )
        start = init_params(40, 40, hp)
        best, _ = train(ctx, hp, start.P, start.Q)
        pred = predict(best, ctx.embeddings, ratings.users, ratings.items)
        fit = float(np.sqrt(np.mean((pred - ratings.values) ** 2)))
        assert fit <= 0.1 + 0.05

    def test_deterministic(self, make_context):
        rng = np.random.default_rng(8)
        ctx = make_context(rng, 8, 6, 3)
        hp = HyperParams(
            k=3, learning_rate=0.02, lam_p=0.05, lam_q=0.05, lam_w=0.05, lam_t=0.05,
            lam_c=0.05, epochs=5, seed=2,
        )
        start = init_params(8, 6, hp)
        a, hist_a = train(ctx, hp, start.P, start.Q)
        b, hist_b = train(ctx, hp, start.P, start.Q)
        assert hist_a == hist_b
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.Q, b.Q)

    def test_embedding_free_training_leaves_w_at_zero_without_solving(self, make_context, monkeypatch):
        # trust and leaders on, embeddings off: the gate has nothing to weigh
        rng = np.random.default_rng(9)
        ctx = make_context(rng, 8, 6, 3, with_embeddings=False)
        hp = HyperParams(
            k=3, learning_rate=0.02, lam_p=0.05, lam_q=0.05, lam_w=0.05, lam_t=0.05,
            lam_c=0.05, epochs=5, seed=3,
        )
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        start = init_params(8, 6, hp)
        best, _ = train(ctx, hp, start.P, start.Q)
        np.testing.assert_array_equal(best.W, np.zeros(3))
        assert solves == []


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        params = ModelParams(rng.normal(size=(3, 5)), rng.normal(size=(3, 4)), rng.normal(size=3))
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.P, params.P)
        np.testing.assert_array_equal(loaded.Q, params.Q)
        np.testing.assert_array_equal(loaded.W, params.W)

    def test_init_params_shapes_and_zero_weights(self):
        hp = plain_hp(k=4, seed=3)
        mp = init_params(6, 7, hp)
        assert mp.P.shape == (4, 6)
        assert mp.Q.shape == (4, 7)
        np.testing.assert_array_equal(mp.W, np.zeros(4))
        again = init_params(6, 7, hp)
        np.testing.assert_array_equal(mp.P, again.P)
