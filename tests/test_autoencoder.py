import tracemalloc

import numpy as np
import pytest

from oracles import (
    central_difference,
    dense_forward,
    dense_loss_and_gradients,
    dense_train_codes,
    gradient_gap,
)
from trustrec.autoencoder import (
    SELU_ALPHA,
    SELU_LAMBDA,
    AutoencoderConfig,
    AutoencoderModel,
    RatingRows,
    encode,
    forward,
    init_autoencoder,
    loss_and_gradients,
    masked_mse,
    rating_arrays,
    rating_rows,
    train_autoencoder,
)
from trustrec.data import RatingMatrix
from trustrec.evaluation import autoencoder_inits


def tiny_config(**overrides):
    base = dict(hidden_sizes=(5, 3, 5), learning_rate=0.01, batch_size=4, epochs=0, seed=0)
    base.update(overrides)
    return AutoencoderConfig(**base)


class TestSelu:
    def test_fixed_points(self):
        from trustrec.autoencoder import selu

        assert selu(np.array(0.0)) == 0.0
        np.testing.assert_allclose(selu(np.array(1.0)), SELU_LAMBDA, rtol=0, atol=0)
        # deep-negative asymptote
        np.testing.assert_allclose(
            selu(np.array(-60.0)), -SELU_LAMBDA * SELU_ALPHA, rtol=0, atol=1e-12
        )

    def test_monotone_and_continuous(self):
        from trustrec.autoencoder import selu

        xs = np.linspace(-6, 6, 1001)
        ys = selu(xs)
        assert np.all(np.diff(ys) > 0)
        assert abs(selu(np.array(1e-12)) - selu(np.array(-1e-12))) < 1e-11

    def test_gradient_matches_finite_differences(self):
        from trustrec.autoencoder import selu, selu_grad

        xs = np.array([-3.0, -1.0, -0.1, 0.2, 1.0, 4.0])
        numeric = (selu(xs + 1e-6) - selu(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(selu_grad(xs), numeric, rtol=1e-6)


class TestConfig:
    def test_even_layer_count_rejected(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(hidden_sizes=(8, 4, 4, 8))

    def test_asymmetric_stack_rejected(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(hidden_sizes=(8, 4, 6))

    def test_code_size_is_middle_entry(self):
        assert AutoencoderConfig().code_size == 10
        assert tiny_config().code_size == 3


class TestMaskedMse:
    def test_hand_values(self):
        r = np.array([5.0, 0.0, 3.0])
        y = np.array([4.0, 2.0, 3.0])
        m = np.array([1.0, 0.0, 1.0])
        assert masked_mse(y, r, m) == 0.5
        assert masked_mse(np.array([0.0]), np.array([2.0]), np.array([1.0])) == 4.0

    def test_perfect_reconstruction(self):
        r = np.array([[1.0, 2.0], [3.0, 0.0]])
        m = (r != 0).astype(float)
        assert masked_mse(r, r, m) == 0.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_mse(np.zeros(3), np.zeros(3), np.zeros(3))

    def test_masked_positions_ignored_to_the_bit(self):
        rng = np.random.default_rng(1)
        r = rng.normal(size=8)
        y = rng.normal(size=8)
        m = np.array([1.0, 0, 1, 0, 0, 1, 1, 0])
        base = masked_mse(y, r, m)
        poked = y + 1000.0 * (1.0 - m)
        assert masked_mse(poked, r, m) == base


class TestForward:
    def test_zero_model_propagates_zero(self):
        model = init_autoencoder(4, tiny_config(), np.random.default_rng(0))
        for w in model.weights:
            w[:] = 0.0
        acts, _ = forward(model, np.ones((2, 4)))
        np.testing.assert_array_equal(acts[-1], np.zeros((2, 4)))
        np.testing.assert_array_equal(acts[model.code_layer], np.zeros((2, 3)))

    def test_deterministic(self):
        model = init_autoencoder(6, tiny_config(seed=3), np.random.default_rng(3))
        x = np.random.default_rng(5).normal(size=(3, 6))
        a, _ = forward(model, x)
        b, _ = forward(model, x)
        np.testing.assert_array_equal(a[-1], b[-1])

    def test_dimension_mismatch_rejected(self):
        model = init_autoencoder(4, tiny_config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(model, np.ones((2, 5)))

    def test_shapes_mirror_around_code(self):
        model = init_autoencoder(9, AutoencoderConfig(hidden_sizes=(7, 4, 2, 4, 7)), np.random.default_rng(0))
        shapes = [w.shape for w in model.weights]
        for left, right in zip(shapes, reversed(shapes)):
            assert left == right[::-1]


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = init_autoencoder(6, tiny_config(seed=7), rng)
        targets = rng.uniform(1.0, 5.0, size=(4, 6))
        mask = (rng.random((4, 6)) < 0.6).astype(float)
        mask[0, 0] = 1.0  # keep at least one observation
        _, w_grads, b_grads = loss_and_gradients(model, targets, mask)

        for layer in range(len(model.weights)):
            def loss_at_w(wmat, layer=layer):
                saved = model.weights[layer]
                model.weights[layer] = wmat
                acts, _ = forward(model, targets * mask)
                out = masked_mse(acts[-1], targets, mask)
                model.weights[layer] = saved
                return out

            numeric = central_difference(loss_at_w, model.weights[layer])
            assert gradient_gap(w_grads[layer], numeric) < 1e-4

            def loss_at_b(bvec, layer=layer):
                saved = model.biases[layer]
                model.biases[layer] = bvec
                acts, _ = forward(model, targets * mask)
                out = masked_mse(acts[-1], targets, mask)
                model.biases[layer] = saved
                return out

            numeric_b = central_difference(loss_at_b, model.biases[layer])
            assert gradient_gap(b_grads[layer], numeric_b) < 1e-4

    def test_unobserved_values_inert_to_the_bit(self):
        rng = np.random.default_rng(9)
        model = init_autoencoder(5, tiny_config(seed=9), rng)
        targets = rng.uniform(1.0, 5.0, size=(3, 5))
        mask = np.array([[1.0, 0, 1, 0, 1], [0, 1, 0, 1, 0], [1, 1, 0, 0, 0]])
        loss, w_grads, _ = loss_and_gradients(model, targets, mask)
        poked = targets + 500.0 * (1.0 - mask)
        loss2, w_grads2, _ = loss_and_gradients(model, poked, mask)
        assert loss2 == loss
        for a, b in zip(w_grads, w_grads2):
            np.testing.assert_array_equal(a, b)


class TestTraining:
    def test_zero_epochs_returns_untrained_model(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(1.0, 5.0, size=(6, 5))
        mask = np.ones_like(targets)
        model = train_autoencoder(targets, mask, tiny_config(epochs=0))
        fresh = init_autoencoder(5, tiny_config(epochs=0), np.random.default_rng(0))
        assert model.loss_history == []
        for a, b in zip(model.weights, fresh.weights):
            np.testing.assert_array_equal(a, b)

    def test_beats_constant_mean_reconstructor(self):
        rng = np.random.default_rng(2)
        targets = np.array(
            [
                [5.0, 1.0, 4.0, 1.0],
                [4.0, 2.0, 5.0, 1.0],
                [1.0, 5.0, 2.0, 4.0],
                [2.0, 4.0, 1.0, 5.0],
            ]
        )
        mask = np.ones_like(targets)
        config = tiny_config(hidden_sizes=(4, 2, 4), learning_rate=0.02, epochs=200, seed=2)
        model = train_autoencoder(targets, mask, config)
        mean = targets.mean()
        constant_loss = masked_mse(np.full_like(targets, mean), targets, mask)
        assert model.loss_history[-1] < constant_loss

    def test_low_rank_data_reconstructed(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(0.5, 1.5, size=(30, 3))
        v = rng.uniform(0.5, 1.5, size=(3, 12))
        targets = u @ v  # noiseless rank 3
        mask = (rng.random(targets.shape) < 0.7).astype(float)
        config = AutoencoderConfig(
            hidden_sizes=(16, 3, 16), learning_rate=0.02, batch_size=8, epochs=2000, seed=4
        )
        model = train_autoencoder(targets, mask, config)
        assert model.loss_history[-1] < 0.01

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(6)
        targets = rng.uniform(1.0, 5.0, size=(10, 6))
        mask = (rng.random((10, 6)) < 0.8).astype(float)
        mask[0] = 1.0
        config = tiny_config(hidden_sizes=(4, 2, 4), epochs=15, seed=11)
        a = train_autoencoder(targets, mask, config)
        b = train_autoencoder(targets, mask, config)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_no_observations_rejected(self):
        with pytest.raises(ValueError):
            train_autoencoder(np.zeros((3, 4)), np.zeros((3, 4)), tiny_config(epochs=1))


class TestEncode:
    def test_identical_rows_get_identical_codes(self):
        rng = np.random.default_rng(8)
        model = init_autoencoder(6, tiny_config(seed=8), rng)
        row = rng.uniform(1.0, 5.0, size=6)
        targets = np.stack([row, row, row * 0.0])
        mask = (targets != 0).astype(float)
        codes = encode(model, targets, mask)
        assert codes.shape == (3, 3)
        np.testing.assert_array_equal(codes[0], codes[1])

    def test_all_zero_row_gets_bias_driven_code(self):
        rng = np.random.default_rng(8)
        model = init_autoencoder(6, tiny_config(seed=8), rng)
        codes = encode(model, np.zeros((1, 6)), np.zeros((1, 6)))
        # zero input with zero biases lands exactly on selu(0) = 0
        np.testing.assert_array_equal(codes, np.zeros((1, 3)))


class TestRatingArrays:
    def test_user_rows_and_item_rows(self, make_ratings):
        ratings = make_ratings([(0, 1, 3.0), (1, 0, 2.0), (1, 2, 5.0)], 2, 3)
        t_users, m_users = rating_arrays(ratings, axis="users")
        assert t_users.shape == (2, 3)
        assert t_users[0, 1] == 3.0 and m_users[0, 1] == 1.0
        assert m_users.sum() == 3
        t_items, m_items = rating_arrays(ratings, axis="items")
        assert t_items.shape == (3, 2)
        np.testing.assert_array_equal(t_items, t_users.T)

    def test_zero_rating_is_observed(self, make_ratings):
        ratings = make_ratings([(0, 0, 0.0), (1, 1, 1.5)], 2, 2, r_min=-2.0, r_max=2.0)
        for axis in ("users", "items"):
            targets, mask = rating_arrays(ratings, axis=axis)
            assert mask.sum() == 2
            assert mask[0, 0] == 1.0 and targets[0, 0] == 0.0
            assert mask[1, 1] == 1.0 and targets[1, 1] == 1.5

    def test_unknown_axis_rejected(self, make_ratings):
        ratings = make_ratings([(0, 0, 1.0)], 1, 1)
        with pytest.raises(ValueError):
            rating_arrays(ratings, axis="columns")


def relative_gap(a, b):
    """Worst-entry difference over the reference's largest magnitude."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def sparse_fixture(seed, rows=12, cols=9, density=0.35):
    """Dense targets and mask with an empty row, an empty column and a 0.0 rating."""
    rng = np.random.default_rng(seed)
    targets = rng.uniform(-2.0, 2.0, size=(rows, cols))
    mask = (rng.random((rows, cols)) < density).astype(float)
    mask[3] = 0.0
    mask[:, 5] = 0.0
    mask[0, 0] = 1.0
    targets[0, 0] = 0.0
    # junk at unobserved positions must not matter to either path
    return targets + 1e6 * (1.0 - mask) * (targets < 0), mask


class TestSparseMatchesDenseOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_gradients(self, seed):
        targets, mask = sparse_fixture(seed)
        model = init_autoencoder(9, tiny_config(hidden_sizes=(7, 4, 7)), np.random.default_rng(seed))
        batches = [np.arange(12), np.array([3]), np.array([0]), np.array([7, 3, 11])]
        for rows in batches:
            want = dense_loss_and_gradients(model, targets[rows], mask[rows])
            got = loss_and_gradients(model, targets[rows], mask[rows])
            sparse_rows = RatingRows.from_dense(targets, mask).take(rows)
            got_sparse = loss_and_gradients(model, sparse_rows)
            if mask[rows].sum() == 0:
                assert got[0] == want[0] == 0.0
                for grads in (*got[1:], *got_sparse[1:]):
                    assert all(not g.any() for g in grads)
                continue
            assert abs(got[0] - want[0]) <= 1e-12 * want[0]
            assert got_sparse[0] == got[0]
            for kind in (1, 2):
                for g, gs, w in zip(got[kind], got_sparse[kind], want[kind]):
                    assert g.shape == w.shape
                    assert relative_gap(g, w) < 1e-12
                    np.testing.assert_array_equal(gs, g)

    def test_trained_codes_match_dense_training(self):
        targets, mask = sparse_fixture(4, rows=40, cols=15, density=0.3)
        config = AutoencoderConfig(
            hidden_sizes=(8, 3, 8), learning_rate=0.05, batch_size=6, epochs=8, seed=4
        )
        _, want = dense_train_codes(targets, mask, config)
        model = train_autoencoder(targets, mask, config)
        got = encode(model, targets, mask)
        assert np.abs(got - want).max() < 1e-10

    def test_dense_forward_output_matches_oracle(self):
        rng = np.random.default_rng(3)
        model = init_autoencoder(6, tiny_config(seed=3), rng)
        x = rng.normal(size=(4, 6))
        got, got_pre = forward(model, x)
        want, want_pre = dense_forward(model, x)
        assert got[-1].shape == (4, 6)
        assert relative_gap(got[-1], want[-1]) < 1e-12
        assert relative_gap(got_pre[-1], want_pre[-1]) < 1e-12

    def test_rating_rows_hold_every_stored_rating(self, make_ratings):
        ratings = make_ratings([(0, 0, 0.0), (0, 2, 1.0), (1, 1, -1.5)], 3, 3, r_min=-2.0, r_max=2.0)
        users = rating_rows(ratings, axis="users")
        items = rating_rows(ratings, axis="items")
        assert (len(users), users.num_visible, users.matrix.nnz) == (3, 3, 3)
        assert (len(items), items.num_visible, items.matrix.nnz) == (3, 3, 3)
        np.testing.assert_array_equal(users.values, [0.0, 1.0, -1.5])
        np.testing.assert_array_equal(items.entry_rows, [0, 1, 2])
        np.testing.assert_array_equal(items.matrix.indices, [0, 1, 0])

    def test_mask_with_sparse_batch_rejected(self):
        rows = RatingRows.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            loss_and_gradients(init_autoencoder(3, tiny_config(), np.random.default_rng(0)), rows, np.ones((2, 3)))


class TestOutputWeightLayout:
    """W_L is stored column-major; results depend only on its values."""

    @staticmethod
    def trained(epochs=3):
        targets, mask = sparse_fixture(5, rows=20, cols=9)
        config = tiny_config(hidden_sizes=(6, 3, 6), batch_size=6, epochs=epochs, seed=5)
        return targets, mask, config, train_autoencoder(targets, mask, config)

    def test_output_weights_transpose_is_c_contiguous(self):
        *_, model = self.trained()
        assert model.weights[-1].T.flags.c_contiguous

    def test_c_ordered_copy_gives_identical_results(self):
        targets, mask, _, model = self.trained()
        c_model = AutoencoderModel(
            [np.ascontiguousarray(w) for w in model.weights], model.biases, model.hidden_sizes
        )
        assert not c_model.weights[-1].T.flags.c_contiguous
        batch = RatingRows.from_dense(targets, mask).take(np.array([7, 0, 3, 12]))
        acts, pres = forward(model, batch)
        c_acts, c_pres = forward(c_model, batch)
        for x, y in zip([*acts[1:], *pres], [*c_acts[1:], *c_pres]):
            np.testing.assert_array_equal(x, y)
        loss, w_grads, b_grads = loss_and_gradients(model, batch)
        c_loss, c_w_grads, c_b_grads = loss_and_gradients(c_model, batch)
        assert loss == c_loss
        for x, y in zip([*w_grads, *b_grads], [*c_w_grads, *c_b_grads]):
            np.testing.assert_array_equal(x, y)

    def test_loss_history_weights_each_batch_loss_by_its_count(self):
        targets, mask, config, model = self.trained()
        data = RatingRows.from_dense(targets, mask)
        rng = np.random.default_rng(config.seed)
        replay = init_autoencoder(data.num_visible, config, rng)
        want = []
        for _ in range(config.epochs):
            order = rng.permutation(len(data))
            losses, counts = [], []
            for start in range(0, len(data), config.batch_size):
                batch = data.take(order[start : start + config.batch_size])
                loss, w_grads, b_grads = loss_and_gradients(replay, batch)
                losses.append(loss)
                counts.append(batch.matrix.nnz)
                for w, b, gw, gb in zip(replay.weights, replay.biases, w_grads, b_grads):
                    w -= config.learning_rate * gw
                    b -= config.learning_rate * gb
            want.append(sum(loss * count for loss, count in zip(losses, counts)) / sum(counts))
        assert model.loss_history == want
        for w, v in zip(model.weights, replay.weights):
            np.testing.assert_array_equal(w, v)

    def test_forward_runs_once_per_batch_and_never_on_the_full_data(self, monkeypatch):
        import trustrec.autoencoder as ae

        rows_seen = []
        real_forward = ae.forward

        def counting_forward(model, x):
            rows_seen.append(len(x))
            return real_forward(model, x)

        monkeypatch.setattr(ae, "forward", counting_forward)
        targets, _, config, _ = self.trained(epochs=4)
        batches_per_epoch = -(-len(targets) // config.batch_size)
        assert len(rows_seen) == config.epochs * batches_per_epoch
        assert max(rows_seen) <= config.batch_size < len(targets)


def test_autoencoder_inits_never_allocates_a_dense_side():
    users, items, density = 4000, 6000, 0.005
    rng = np.random.default_rng(0)
    flat = np.sort(rng.choice(users * items, size=int(users * items * density), replace=False))
    ratings = RatingMatrix(users, items, flat // items, flat % items, rng.uniform(1.0, 5.0, len(flat)))
    config = AutoencoderConfig(epochs=1, seed=0)
    # one users × items float64 array; a dense side is two of them
    dense_array_mb = 8 * users * items / 2**20
    tracemalloc.start()
    try:
        init_P, init_Q = autoencoder_inits(ratings, 10, config, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert init_P.shape == (10, users) and init_Q.shape == (10, items)
    peak_mb = peak / 2**20
    assert peak_mb < dense_array_mb, f"peak {peak_mb:.1f} MB against {dense_array_mb:.0f} MB for one dense array"
