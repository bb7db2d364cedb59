"""Self-test of the output checks: each must fail on a corrupted output.

    python3 perfbench/selftest.py

Runs prepare → train → evaluate --ablate --baseline-mean on
``trustrec.synth.toy_bundle(seed=0)`` in a scratch work directory under
``.perfbench_work/``, confirms the clean outputs pass every check, then
corrupts one output at a time (in a copy) and confirms the check meant to
catch it reports a problem.  Exits 1 if any corruption goes unnoticed.
"""

import os
import shutil
import sys
import time
from types import SimpleNamespace

import run  # sets the BLAS thread count and puts src/ on sys.path first

import checks

from trustrec.serialize import save_checkpoint
from trustrec.synth import toy_bundle, write_bundle

CONFIG = {
    "autoencoder.epochs": 10,
    "walks.num_walks": 5,
    "walks.walk_length": 20,
    "graph.max_depth": 3,
    "graph.decay": 0.8,
    "model.epochs": 30,
    "model.learning_rate": 0.01,
}


def edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in edit(lines)))


def edit_checkpoint(path, kind, edit):
    arrays, meta = checks.read_checkpoint(path)
    arrays = {name: arr.copy() for name, arr in arrays.items()}
    edit(arrays, meta)
    save_checkpoint(path, kind, arrays, meta)


def report_line(tag, value):
    return f"{tag}\t{value!r}\t0\t0"


def set_report(work, edit):
    """Apply ``edit`` to the (tag, rmse) rows in report.txt; returns the printed text."""
    path = os.path.join(work, "report.txt")
    rows = edit(checks.read_report(path))
    text = "".join(report_line(tag, value) + "\n" for tag, value in rows)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def swap_two_leaders(arrays, meta):
    leaders = arrays["leaders"]
    leaders[[0, 1]] = leaders[[1, 0]]


def raise_every_value(arrays, meta):
    arrays["pairs"][:, 2] = 1.5


def move_train_line_to_test(work):
    prep = checks.stage_dir(work, "prepare")
    moved = []
    edit_lines(os.path.join(prep, "train.txt"), lambda lines: (moved.append(lines[0]), lines[1:])[1])
    edit_lines(os.path.join(prep, "test.txt"), lambda lines: lines + moved)


def scaled(factor):
    return lambda lines: [f"{u},{v},{float(t) * factor!r}" for u, v, t in (line.split(",") for line in lines)]


# (what is corrupted, command whose check must fail, corruption(work) -> printed or None, expected text)
CORRUPTIONS = (
    (
        "a rating dropped from test.txt",
        "prepare",
        lambda w: edit_lines(os.path.join(checks.stage_dir(w, "prepare"), "test.txt"), lambda l: l[1:]),
        "differ from the input ratings",
    ),
    ("a rating moved from train to test", "prepare", move_train_line_to_test, "train holds"),
    (
        "a prepared trust value halved",
        "prepare",
        lambda w: edit_lines(os.path.join(checks.stage_dir(w, "prepare"), "trust.txt"), scaled(0.5)),
        "trust edges differ",
    ),
    (
        "a NaN in the model's Q",
        "train",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "train"), "model.ckpt"),
            "model",
            lambda a, m: a["Q"].__setitem__((0, 0), float("nan")),
        ),
        "non-finite",
    ),
    (
        "a propagated pair dropped",
        "train",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "graph"), "graph.ckpt"),
            "graph",
            lambda a, m: a.__setitem__("pairs", a["pairs"][1:]),
        ),
        "within it missing",
    ),
    (
        "a direct edge's value changed",
        "train",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "graph"), "graph.ckpt"),
            "graph",
            lambda a, m: a["pairs"].__setitem__((slice(None), 2), a["pairs"][:, 2] * 0.99),
        ),
        "lost its stored trust value",
    ),
    (
        "every propagated value raised to 1.5",
        "train",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "graph"), "graph.ckpt"), "graph", raise_every_value
        ),
        "outside (0, decay^(d-1)]",
    ),
    (
        "the stored modularity nudged",
        "train",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "graph"), "graph.ckpt"),
            "graph",
            lambda a, m: a["modularity"].__setitem__(0, a["modularity"][0] + 1e-6),
        ),
        "stored modularity",
    ),
    (
        "two leaders swapped",
        "train",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "graph"), "graph.ckpt"), "graph", swap_two_leaders
        ),
        "leader lies outside",
    ),
    (
        "the full RMSE nudged in the report",
        "evaluate",
        lambda w: set_report(w, lambda rows: [(t, v + 1e-6 if t == "full" else v) for t, v in rows]),
        "RMSE from the checkpoint",
    ),
    (
        "the model's Q perturbed",
        "evaluate",
        lambda w: edit_checkpoint(
            os.path.join(checks.stage_dir(w, "train"), "model.ckpt"),
            "model",
            lambda a, m: a.__setitem__("Q", a["Q"] * 1.01),
        ),
        "RMSE from the checkpoint",
    ),
    (
        "two ladder rungs swapped",
        "evaluate",
        lambda w: set_report(w, lambda rows: [rows[1], rows[0], *rows[2:]]),
        "ladder tags",
    ),
    (
        "the mean baseline nudged",
        "evaluate",
        lambda w: set_report(w, lambda rows: [(t, v + 1e-6 if t == "mean" else v) for t, v in rows]),
        "train-mean RMSE",
    ),
    (
        "mf scored below full",
        "evaluate",
        lambda w: set_report(w, lambda rows: [(t, 0.0 if t == "mf" else v) for t, v in rows]),
        "does not beat mf",
    ),
    (
        "full scored worse than the train mean",
        "evaluate",
        lambda w: set_report(w, lambda rows: [(t, 9.0 if t == "full" else v) for t, v in rows]),
        "does not beat the train mean",
    ),
    (
        "embeddings.ckpt truncated by 8 bytes",
        "train",
        lambda w: os.truncate(
            os.path.join(checks.stage_dir(w, "embed"), "embeddings.ckpt"),
            os.path.getsize(os.path.join(checks.stage_dir(w, "embed"), "embeddings.ckpt")) - 8,
        ),
        "truncated checkpoint",
    ),
    (
        "report.txt differs from the printed report",
        "evaluate",
        lambda w: set_report(w, lambda rows: rows[:-1]) and None,
        "printed report differs",
    ),
)


def main():
    started = time.monotonic()
    root = run.WORK_ROOT / f"selftest-pid{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        bundle = toy_bundle(seed=0)
        paths = {"ratings": root / "ratings.txt", "trust": root / "trust.txt"}
        write_bundle(SimpleNamespace(ratings=bundle.ratings, trust=bundle.trust), *paths.values())
        lines = [f"paths.{k} = {v}" for k, v in paths.items()] + [f"{k} = {v}" for k, v in CONFIG.items()]
        (root / "run.conf").write_text("\n".join(lines) + "\n")
        inputs = {
            **paths,
            "train_fraction": 0.8,
            "decay": CONFIG["graph.decay"],
            "max_depth": CONFIG["graph.max_depth"],
            "scale": (1.0, 5.0),
            "ablate": True,
        }
        clean = root / "clean"
        printed = ""
        for tail in (("prepare",), ("train",), ("evaluate", "--ablate", "--baseline-mean")):
            code, _, printed = run.run_in_process(["--config", str(root / "run.conf"), "--work", str(clean), *tail])
            if code != 0:
                print(f"clean {tail[0]} exited {code}")
                return 1

        failures = []
        for command in ("prepare", "train", "evaluate"):
            problems = run.Round(None, inputs, clean, None).check(command, printed)
            if problems:
                failures.append(f"clean outputs fail the {command} check: {problems}")
        for what, command, corrupt, expected in CORRUPTIONS:
            work = root / "corrupt"
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(clean, work)
            text = corrupt(work)
            problems = run.Round(None, inputs, work, None).check(command, printed if text is None else text)
            caught = any(expected in p for p in problems)
            print(f"{'caught' if caught else 'MISSED'}: {what} ({command}) -> {problems}")
            if not caught:
                failures.append(f"{what} went unnoticed by the {command} check")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"{len(CORRUPTIONS)} corruptions, {len(failures)} failures, {time.monotonic() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
