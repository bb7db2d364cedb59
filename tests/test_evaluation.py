import os

import numpy as np
import pytest

from trustrec import evaluation
from trustrec.autoencoder import AutoencoderConfig
from trustrec.data import DataFormatError, RatingMatrix, SplitSpec, split
from trustrec.evaluation import (
    ABLATION_TAGS,
    EvalReport,
    autoencoder_inits,
    constant_baseline,
    evaluate,
    read_reports,
    rmse,
    run_ablations,
    write_reports,
)
from trustrec.model import HyperParams, ModelParams, TrainingContext, init_params, train
from trustrec.synth import planted_factors


class TestRmse:
    def test_perfect_predictions(self):
        assert rmse([(4.0, 4.0), (1.5, 1.5)]) == 0.0

    def test_single_unit_residual(self):
        assert rmse([(4.0, 3.0)]) == 1.0

    def test_two_symmetric_residuals(self):
        assert rmse([(5.0, 3.0), (1.0, 3.0)]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pairs = [(float(a), float(p)) for a, p in rng.uniform(1, 5, size=(40, 2))]
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        assert rmse(shuffled) == pytest.approx(rmse(pairs), rel=1e-14)

    def test_scales_linearly_in_residuals(self):
        rng = np.random.default_rng(1)
        actual = rng.uniform(1, 5, size=20)
        predicted = rng.uniform(1, 5, size=20)
        base = rmse(list(zip(actual, predicted)))
        c = -2.5
        scaled = rmse(list(zip(c * actual, c * predicted)))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


class TestEvaluate:
    def test_constant_mean_on_extremes(self):
        # a model that always predicts 3 scored on ratings {1, 5}
        params = ModelParams(np.array([[3.0]]), np.array([[1.0, 1.0]]), np.zeros(1))
        test = RatingMatrix(
            1, 2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 5.0])
        ).validate()
        assert evaluate(params, None, test).rmse == 2.0

    def test_zero_model_clamps_to_scale_floor(self):
        params = ModelParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        test = RatingMatrix(
            2, 2, np.array([0, 1]), np.array([0, 1]), np.array([3.0, 3.0])
        ).validate()
        assert evaluate(params, None, test).rmse == 2.0

    def test_huge_model_clamps_to_scale_ceiling(self):
        params = ModelParams(np.array([[100.0]]), np.array([[100.0]]), np.zeros(1))
        test = RatingMatrix(1, 1, np.array([0]), np.array([0]), np.array([3.0])).validate()
        assert evaluate(params, None, test).rmse == 2.0

    def test_unseen_user_predicts_from_zero_factors(self):
        # params cover one user; the second test user falls back to a zero
        # pre-clamp prediction instead of raising
        params = ModelParams(np.array([[3.0]]), np.array([[1.0, 1.0]]), np.zeros(1))
        test = RatingMatrix(
            2, 2, np.array([0, 1]), np.array([0, 1]), np.array([3.0, 3.0])
        ).validate()
        assert evaluate(params, None, test).rmse == float(np.sqrt(2.0))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        params = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)), rng.normal(size=2))
        test = RatingMatrix(
            3, 4, np.array([0, 1, 2]), np.array([0, 1, 3]), np.array([2.0, 4.0, 3.0])
        ).validate()
        first = evaluate(params, None, test, model_tag="m", seed=5)
        second = evaluate(params, None, test, model_tag="m", seed=5)
        assert first == second

    def test_report_fields(self):
        params = ModelParams(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
        test = RatingMatrix(1, 1, np.array([0]), np.array([0]), np.array([3.0])).validate()
        report = evaluate(params, None, test, model_tag="probe", seed=9)
        assert report.model_tag == "probe"
        assert report.num_pairs == 1
        assert report.seed == 9
        assert np.isfinite(report.rmse)

    def test_empty_test_rejected(self):
        params = ModelParams(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
        empty = RatingMatrix(
            1, 1, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        ).validate()
        with pytest.raises(ValueError):
            evaluate(params, None, empty)


class TestReportLines:
    def test_line_round_trip(self):
        report = EvalReport("mf+ae", 0.8471234, 360, 7)
        back = EvalReport.from_line(report.line())
        assert back == report

    def test_round_trip_preserves_float_exactly(self):
        report = EvalReport("full", float(np.sqrt(2.0) / 3.0), 12, 0)
        assert EvalReport.from_line(report.line()).rmse == report.rmse

    def test_file_round_trip(self, tmp_path):
        reports = [EvalReport("mf", 1.25, 100, 3), EvalReport("full", 0.75, 100, 3)]
        path = tmp_path / "reports.tsv"
        write_reports(reports, path)
        assert read_reports(path) == reports

    def test_failed_write_keeps_the_old_report(self, tmp_path):
        path = tmp_path / "reports.tsv"
        write_reports([EvalReport("mf", 1.25, 100, 3)], path)
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_reports([EvalReport("full", 0.75, 100, 3), None], path)  # raises on the second line
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["reports.tsv"]

    @pytest.mark.parametrize("line", ["full\t0.8\t12", "full\tnan?\t12\t0", "full\t0.8\t12\t0\t1"])
    def test_malformed_record_names_its_line(self, tmp_path, line):
        path = tmp_path / "reports.tsv"
        path.write_text(f"mf\t1.25\t100\t3\n{line}\n")
        with pytest.raises(DataFormatError, match=r"reports.tsv:2:"):
            read_reports(path)


class TestConstantBaseline:
    def test_mean_three_on_extremes(self):
        test = RatingMatrix(
            1, 2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 5.0])
        ).validate()
        assert constant_baseline(3.0, test).rmse == 2.0

    def test_constant_outside_scale_is_clamped(self):
        test = RatingMatrix(1, 1, np.array([0]), np.array([0]), np.array([3.0])).validate()
        assert constant_baseline(7.0, test).rmse == 2.0

    def test_empty_rejected(self):
        empty = RatingMatrix(
            1, 1, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        ).validate()
        with pytest.raises(ValueError):
            constant_baseline(3.0, empty)


class TestAutoencoderInits:
    def test_code_matrices_have_factor_shapes(self, make_ratings):
        triples = [(u, i, float(1 + (u * 3 + i) % 5)) for u in range(8) for i in range(6) if (u + i) % 2]
        ratings = make_ratings(triples, 8, 6)
        user_config = AutoencoderConfig(hidden_sizes=(4, 3, 4), learning_rate=0.01, epochs=3, seed=0)
        item_config = AutoencoderConfig(hidden_sizes=(4, 3, 4), learning_rate=0.01, epochs=3, seed=1)
        init_P, init_Q = autoencoder_inits(ratings, 3, user_config, item_config)
        assert init_P.shape == (3, 8)
        assert init_Q.shape == (3, 6)
        assert np.isfinite(init_P).all() and np.isfinite(init_Q).all()

    def test_code_width_must_match_k(self, make_ratings):
        triples = [(u, i, 3.0) for u in range(4) for i in range(4) if (u + i) % 2]
        ratings = make_ratings(triples, 4, 4)
        config = AutoencoderConfig(hidden_sizes=(3, 2, 3), learning_rate=0.01, epochs=1, seed=0)
        with pytest.raises(ValueError):
            autoencoder_inits(ratings, 5, config, config)


class TestAblations:
    def test_five_reports_share_the_test_set(self, make_context):
        rng = np.random.default_rng(3)
        ctx = make_context(rng, 10, 8, 3)
        train_split, test_split = split(ctx.train, SplitSpec(0.75, 3))
        ctx.train = train_split
        hp = HyperParams(
            k=3, learning_rate=0.02, lam_p=0.05, lam_q=0.05, lam_w=0.05, lam_t=0.05,
            lam_c=0.05, epochs=3, seed=3,
        )
        reports = run_ablations(ctx, hp, test_split)
        assert tuple(r.model_tag for r in reports) == ABLATION_TAGS
        assert {r.num_pairs for r in reports} == {len(test_split)}
        assert all(np.isfinite(r.rmse) for r in reports)

    def test_trained_full_model_is_scored_not_retrained(self, make_context, monkeypatch, tmp_path):
        rng = np.random.default_rng(4)
        ctx = make_context(rng, 10, 8, 3)
        train_split, test_split = split(ctx.train, SplitSpec(0.75, 4))
        ctx.train = train_split
        hp = HyperParams(k=3, learning_rate=0.02, epochs=3, seed=4)
        start = init_params(10, 8, HyperParams(k=3, seed=9))
        ae_init = (start.P, start.Q)
        full, _ = train(ctx, hp, *ae_init)

        # counted in a file, so that calls made in the forked worker count too
        log = tmp_path / "calls.txt"
        log.write_text("")

        def counting(*a):
            with open(log, "a") as fh:
                fh.write("train\n")
            return train(*a)

        def calls():
            return log.read_text().splitlines()

        monkeypatch.setattr(evaluation, "train", counting)
        retrained = run_ablations(ctx, hp, test_split, ae_init=ae_init)
        assert len(calls()) == 5
        reused = run_ablations(ctx, hp, test_split, ae_init=ae_init, full_params=full)
        assert len(calls()) == 9
        assert [r.line() for r in reused] == [r.line() for r in retrained]

    def test_plain_variant_reaches_noise_floor_on_planted_data(self):
        # rank-5 data at 50% density leaves enough observations per factor
        # for the base variant to fit down to the injected noise
        ratings, _, _ = planted_factors(60, 60, k=5, density=0.5, noise=0.1, seed=5)
        train_split, test_split = split(ratings, SplitSpec(0.8, 7))
        hp = HyperParams(
            k=5, learning_rate=0.03, lam_p=0.05, lam_q=0.05, lam_w=0.0, lam_t=0.0,
            lam_c=0.0, epochs=120, seed=5,
        )
        reports = run_ablations(TrainingContext(train=train_split), hp, test_split)
        assert reports[0].model_tag == "mf"
        assert reports[0].rmse <= 0.1 + 0.05
