"""Held-out RMSE evaluation, baselines, and the ablation ladder."""

from dataclasses import dataclass, replace

import numpy as np

from . import autoencoder as ae
from . import parallel
from .data import DataFormatError
from .model import init_params, predict, train
from .serialize import replace_on_success


def rmse(pairs):
    """Root mean square error over (actual, predicted) pairs.

    sqrt(sum of squared residuals / N); the list must be non-empty.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rmse needs at least one pair")
    arr = arr.reshape(-1, 2)
    residuals = arr[:, 0] - arr[:, 1]
    return float(np.sqrt(residuals @ residuals / len(residuals)))


@dataclass
class EvalReport:
    """One evaluation result: which model, on how many pairs, scoring what."""

    model_tag: str
    rmse: float
    num_pairs: int
    seed: int

    def line(self):
        return f"{self.model_tag}\t{self.rmse!r}\t{self.num_pairs}\t{self.seed}"

    @classmethod
    def from_line(cls, text):
        tag, value, n, seed = text.rstrip("\n").split("\t")
        return cls(tag, float(value), int(n), int(seed))


def evaluate(params, embeddings, test, model_tag="model", seed=0):
    """Clamped-prediction RMSE of a trained model on a non-empty held-out split.

    Predictions are clipped to the rating scale before scoring.  Users or
    items beyond the trained shapes predict zero pre-clamp rather than
    raising, so cold entries degrade gracefully.
    """
    preds = np.zeros(len(test))
    known = (test.users < params.num_users) & (test.items < params.num_items)
    preds[known] = predict(params, embeddings, test.users[known], test.items[known])
    preds = np.clip(preds, test.r_min, test.r_max)
    return EvalReport(model_tag, rmse(np.column_stack([test.values, preds])), len(test), seed)


def constant_baseline(value, test, model_tag="constant"):
    """RMSE of predicting one clamped constant (such as the train mean) everywhere."""
    pred = min(max(value, test.r_min), test.r_max)
    score = rmse(np.column_stack([test.values, np.full(len(test), pred)]))
    return EvalReport(model_tag, score, len(test), 0)


ABLATION_TAGS = ("mf", "mf+ae", "mf+ae+trust", "mf+ae+trust+leader", "full")


def autoencoder_inits(train_split, k, user_config, item_config):
    """Pretrain both autoencoders and return (init_P, init_Q) code matrices.

    The user stack reconstructs rating rows, the item stack rating columns;
    the code layers (width k) become the factor initializations.  Both sides
    stay sparse (``autoencoder.rating_rows``), so memory grows with the
    number of ratings, not with users × items.
    """
    codes = []
    for axis, config in (("users", user_config), ("items", item_config)):
        rows = ae.rating_rows(train_split, axis=axis)
        model = ae.train_autoencoder(rows, None, config)
        codes.append(ae.encode(model, rows).T)
    init_P, init_Q = codes
    if init_P.shape[0] != k or init_Q.shape[0] != k:
        raise ValueError(f"autoencoder code width {init_P.shape[0]} does not match k={k}")
    return init_P, init_Q


def run_ablations(ctx, hp, test, ae_init=None, full_params=None):
    """Train and score the five-variant ladder on one shared split.

    Variants add one ingredient at a time: plain randomly initialized MF,
    then autoencoder initialization, the trust term, the leader term, and
    finally the embedding pathway.  When ``ae_init`` is None the autoencoder
    variants fall back to the random initialization, so the ladder still runs
    (and reports the degenerate comparison) without pretraining.  The last
    variant is the full model: ``full_params``, when given, must be that
    model already trained on ``ctx`` from ``ae_init`` with ``hp``, and is
    scored as it is instead of being trained again.  Each rung trains from
    its own seeded generator, so the rungs are independent: a forked worker
    trains ``mf+ae`` and ``mf+ae+trust+leader`` while this process trains the
    others (``parallel.both``).  Reports keep the ``ABLATION_TAGS`` order.
    """
    m, n = ctx.train.num_users, ctx.train.num_items
    base = init_params(m, n, hp)
    random_init = (base.P, base.Q)
    ae_init = ae_init or random_init

    variants = (
        (ABLATION_TAGS[0], random_init, replace(ctx, trust=None, embeddings=None, leaders=None)),
        (ABLATION_TAGS[1], ae_init, replace(ctx, trust=None, embeddings=None, leaders=None)),
        (ABLATION_TAGS[2], ae_init, replace(ctx, embeddings=None, leaders=None)),
        (ABLATION_TAGS[3], ae_init, replace(ctx, embeddings=None)),
        (ABLATION_TAGS[4], ae_init, ctx),
    )

    def score(rungs):
        reports = []
        for tag, (init_P, init_Q), variant_ctx in rungs:
            if tag == ABLATION_TAGS[-1] and full_params is not None:
                params = full_params
            else:
                params, _ = train(variant_ctx, hp, init_P, init_Q)
            reports.append(
                evaluate(params, variant_ctx.embeddings, test, model_tag=tag, seed=hp.seed)
            )
        return reports

    reports = [None] * len(variants)
    reports[1::2], reports[0::2] = parallel.both(lambda: score(variants[1::2]), lambda: score(variants[0::2]))
    return reports


def write_reports(reports, path):
    """One tab-separated record per line: tag, rmse, N, seed.

    The file is replaced only once complete, so an interrupted write leaves
    the previous report in place.
    """
    with replace_on_success(path) as fh:
        for report in reports:
            fh.write(report.line() + "\n")


def read_reports(path):
    """Reports from ``write_reports``' file; a malformed record raises DataFormatError."""
    reports = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    reports.append(EvalReport.from_line(line))
                except ValueError:
                    raise DataFormatError(path, line_no, "expected tag, rmse, count and seed") from None
    return reports
