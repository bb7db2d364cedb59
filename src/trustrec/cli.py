"""Command-line pipeline harness: prepare, train, evaluate, report.

The pipeline runs from a flat ``key = value`` config file with dotted section
prefixes (see DEFAULTS for every key).  Each stage writes its artifacts into
a work-directory folder named by a content hash of the stage's config section,
its upstream artifacts and the package's source code.  Reruns reuse finished
stages, any config change recomputes exactly the affected stages, and a
changed program never reads artifacts that another version wrote.  All stages
are seeded and artifacts carry no timestamps: identical configs produce
byte-identical outputs.

Exit codes: 0 success, 2 usage, input or I/O error, 3 numeric failure.
"""

import argparse
import fcntl
import functools
import glob
import hashlib
import os
import shutil
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import evaluation, parallel
from .autoencoder import AutoencoderConfig
from .data import (
    DataFormatError, IdMap, SplitSpec, global_mean, load_prepared, load_ratings, load_trust, save_prepared, split,
)
from .embed import WalkConfig, node_embeddings
from .graph import GraphOptions, community_leaders, load_graph, louvain, propagate_trust, save_graph
from .model import HyperParams, TrainingContext, load_params, save_params, train
from .serialize import CheckpointError, load_checkpoint, replace_on_success, save_checkpoint


class ConfigError(ValueError):
    """Bad config file (unknown key, unparsable value, missing path) or unusable input."""


class NumericError(ArithmeticError):
    """Training produced a non-finite value."""


@dataclass
class PipelineConfig:
    ratings_path: str
    trust_path: str
    work_dir: str
    scale: tuple
    split: SplitSpec
    autoencoder: AutoencoderConfig
    walks: WalkConfig
    graph: GraphOptions
    model: HyperParams


def _parse_ints(text):
    return tuple(int(part) for part in text.replace(",", " ").split())


# section -> the dataclass whose fields and defaults are that section's keys
SECTIONS = {
    "split": SplitSpec,
    "autoencoder": AutoencoderConfig,
    "walks": WalkConfig,
    "graph": GraphOptions,
    "model": HyperParams,
}

# key -> (converter, default); config files may override any subset
DEFAULTS = {
    "paths.ratings": (str, ""),
    "paths.trust": (str, ""),
    "paths.work": (str, "work"),
    "data.scale_min": (float, 1.0),
    "data.scale_max": (float, 5.0),
    **{
        f"{name}.{f.name}": (_parse_ints if isinstance(f.default, tuple) else type(f.default), f.default)
        for name, cls in SECTIONS.items()
        for f in fields(cls)
    },
}

_SEED_KEYS = tuple(key for key in DEFAULTS if key.endswith("seed"))


def parse_config_file(path):
    """Flat dotted-key mapping from a ``key = value`` file."""
    raw = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            raw[key] = value
    return raw


def build_config(raw, seed_override=None, work_override=None):
    """Typed PipelineConfig from a raw mapping, applying CLI overrides."""
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
    values = {}
    for key, (convert, default) in DEFAULTS.items():
        try:
            values[key] = convert(raw[key]) if key in raw else default
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    if seed_override is not None:
        for key in _SEED_KEYS:
            values[key] = seed_override
    if work_override is not None:
        values["paths.work"] = work_override
    for key in _SEED_KEYS:
        if values[key] < 0:
            raise ConfigError(f"bad value for {key}: seeds must be non-negative, got {values[key]}")
    if not values["data.scale_min"] < values["data.scale_max"]:
        raise ConfigError(f"data.scale_min = {values['data.scale_min']} must lie below "
                          f"data.scale_max = {values['data.scale_max']}")
    try:
        config = PipelineConfig(
            ratings_path=values["paths.ratings"],
            trust_path=values["paths.trust"],
            work_dir=values["paths.work"],
            scale=(values["data.scale_min"], values["data.scale_max"]),
            **{name: cls(**{f.name: values[f"{name}.{f.name}"] for f in fields(cls)})
               for name, cls in SECTIONS.items()},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the code layer seeds P/Q and the embedding gate is elementwise against
    # P_u, so all three widths have to agree before any stage runs
    for name, width in (
        ("autoencoder code width", config.autoencoder.code_size),
        ("walks.dimensions", config.walks.dimensions),
    ):
        if width != config.model.k:
            raise ConfigError(f"{name} = {width} does not match model.k = {config.model.k}")
    return config


def _code_digest():
    """Digest of every source file of this package, by name and content."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode() + b"\x00" + fh.read() + b"\x00")
    return digest.hexdigest()


def _stage_key(*chunks):
    """Short hash naming a stage's folder: its inputs plus the program's code."""
    digest = hashlib.sha256()
    for chunk in (_code_digest(), *chunks):
        digest.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:12]


def _hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# the file of each stage that the train stage reads, in its key's order
_TRAIN_INPUTS = {"autoencoder": "codes.ckpt", "graph": "graph.ckpt", "embed": "embeddings.ckpt"}


def _stage_folders(config, *need):
    """This config's folder ``work/<stage>-<key>`` of each stage, made yet or not.

    A key digests the stage's config section and what the stage reads: the
    input files for prepare, the prepare key for the three stages that read
    the split, and those three stages' files for train.  So the train folder
    is named only once those files exist.  A stage in ``need`` without its
    folder is an error that names the command to run first.
    """
    prep = _stage_key(config.scale, config.split, _hash_file(config.ratings_path), _hash_file(config.trust_path))
    keys = {
        "prepare": prep,
        "autoencoder": _stage_key(config.autoencoder, config.model.k, prep),
        "graph": _stage_key(config.graph, prep),
        "embed": _stage_key(config.walks, prep),
    }
    folders = {stage: os.path.join(config.work_dir, f"{stage}-{key}") for stage, key in keys.items()}
    inputs = [os.path.join(folders[stage], name) for stage, name in _TRAIN_INPUTS.items()]
    if all(map(os.path.exists, inputs)):
        key = _stage_key(config.model, *map(_hash_file, inputs))
        folders["train"] = os.path.join(config.work_dir, f"train-{key}")
    for stage in need:
        if not os.path.isdir(folders.get(stage, "")):
            command = "prepare" if stage == "prepare" else "train"
            raise ConfigError(f"no {stage} stage for this config in {config.work_dir}; "
                              f"run {command} with this config first")
    return folders


def _run_stage(out, produce):
    """Make the stage folder ``out`` by ``produce(folder)``, unless it exists.

    A stage folder exists only when complete: ``produce`` writes into a fresh
    ``<out>.tmp``, which moves into place only when it returns.  The work
    lock keeps that fixed temporary name private to one command, and clears
    the ones earlier commands left.
    """
    if not os.path.isdir(out):
        os.makedirs(out + ".tmp")
        produce(out + ".tmp")
        os.replace(out + ".tmp", out)


def _point_at(work, folders):
    """Point each ``work/<stage>.current`` at that stage's folder in ``folders``."""
    for stage, folder in folders.items():
        with replace_on_success(os.path.join(work, f"{stage}.current")) as fh:
            fh.write(os.path.basename(folder)[len(stage) + 1:] + "\n")


class _WorkLock:
    """One command at a time per work directory.

    Holds an exclusive ``flock`` on ``work/.lock``.  The OS releases it when
    the holder exits, however it exits, so a killed command never blocks the
    next one; the empty lock file itself stays in place.  A forked worker
    closes its copy of the descriptor at once (see ``_drop_locks``), so the
    lock never outlives the command that took it.  Once held, the lock's
    owner removes the temporary files and folders (``*.tmp``) that failed or
    killed commands left behind.
    """

    held = set()  # descriptors of the locks this process holds

    def __init__(self, work):
        self.path = os.path.join(work, ".lock")
        self.fd = None

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConfigError(f"work directory is locked ({self.path}); is another command running?") from None
        self.fd = fd
        _WorkLock.held.add(fd)
        for stale in glob.glob(os.path.join(glob.escape(os.path.dirname(self.path)), "*.tmp")):
            if os.path.isdir(stale):
                shutil.rmtree(stale, ignore_errors=True)
            else:
                os.remove(stale)
        return self

    def __exit__(self, *exc):
        _WorkLock.held.discard(self.fd)
        os.close(self.fd)
        return False


def _drop_locks():
    while _WorkLock.held:
        os.close(_WorkLock.held.pop())


os.register_at_fork(after_in_child=_drop_locks)


def cmd_prepare(config):
    """Split the ratings, share the user index with the trust graph, cache both."""
    folders = _stage_folders(config)

    def produce(out):
        user_map, item_map = IdMap(), IdMap()
        ratings = load_ratings(config.ratings_path, config.scale, user_map, item_map)
        trust = load_trust(config.trust_path, user_map)
        ratings = ratings.with_num_users(len(user_map))
        if len(ratings) == 0:
            raise ConfigError(f"no ratings in {config.ratings_path!r}")
        train_split, test_split = split(ratings, config.split)
        if not (len(train_split) and len(test_split)):
            raise ConfigError(f"the split leaves {len(train_split)} train and {len(test_split)} test ratings")
        save_prepared(out, train_split, test_split, trust, user_map, item_map)

    _run_stage(folders["prepare"], produce)
    _point_at(config.work_dir, {"prepare": folders["prepare"]})


def _check_finite(name, *arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in {name}")


def _load_embeddings(folders):
    _, arrays, _ = load_checkpoint(os.path.join(folders["embed"], "embeddings.ckpt"), expect_kind="embeddings")
    return arrays["vectors"]


def _load_context(folders, train_split):
    """Training context and autoencoder codes from the checkpoints in the stage ``folders``."""
    _, codes, _ = load_checkpoint(os.path.join(folders["autoencoder"], "codes.ckpt"), expect_kind="ae-codes")
    trust, leaders = load_graph(os.path.join(folders["graph"], "graph.ckpt"))
    ctx = TrainingContext(train_split, trust=trust, embeddings=_load_embeddings(folders), leaders=leaders)
    return ctx, (codes["init_P"], codes["init_Q"])


def cmd_train(config):
    """Autoencoders, graph analysis, embeddings, then factor-model SGD.

    The autoencoder stage forks a worker that computes the codes while this
    process runs the graph and embedding stages (``parallel.both``), then
    checks and writes the codes here, so the worker writes nothing in the
    work directory; with the codes cached, those two stages run after it.
    The ``<stage>.current`` pointers move only once the last stage is done.
    """
    folders = _stage_folders(config, "prepare")
    # loaded at most once, and only if some stage misses the cache
    prepared = functools.cache(lambda: load_prepared(folders["prepare"], config.scale))

    def graph(out):
        _, _, trust = prepared()
        communities = louvain(trust, seed=config.graph.louvain_seed)
        try:
            leaders = community_leaders(trust, communities, damping=config.graph.damping)
        except RuntimeError as exc:  # a PageRank iteration that does not converge
            raise NumericError(str(exc)) from None
        propagated = propagate_trust(trust, config.graph.decay, config.graph.max_depth)
        save_graph(os.path.join(out, "graph.ckpt"), communities, leaders, propagated)

    def embed(out):
        _, _, trust = prepared()
        vectors = node_embeddings(trust, config.walks)
        _check_finite("embeddings", vectors)
        save_checkpoint(os.path.join(out, "embeddings.ckpt"), "embeddings", {"vectors": vectors})

    def trust_stages():
        _run_stage(folders["graph"], graph)
        _run_stage(folders["embed"], embed)

    def autoencoder(out):
        train_split = prepared()[0]  # before the fork, so that both sides share one load
        user_cfg = config.autoencoder
        item_cfg = replace(user_cfg, seed=user_cfg.seed + 1)
        codes = functools.partial(evaluation.autoencoder_inits, train_split, config.model.k, user_cfg, item_cfg)
        (init_p, init_q), _ = parallel.both(codes, trust_stages)
        _check_finite("autoencoder codes", init_p, init_q)
        save_checkpoint(os.path.join(out, "codes.ckpt"), "ae-codes", {"init_P": init_p, "init_Q": init_q})

    _run_stage(folders["autoencoder"], autoencoder)
    trust_stages()  # a no-op after the fork above; makes the two stages when the codes were cached

    def model(out):
        ctx, (init_p, init_q) = _load_context(folders, prepared()[0])
        params, history = train(ctx, config.model, init_p, init_q)
        _check_finite("the training objective", history)
        _check_finite("model parameters", params.P, params.Q, params.W)
        save_params(params, os.path.join(out, "model.ckpt"))
        with open(os.path.join(out, "objective.log"), "w") as fh:
            for value in history:
                fh.write(f"{value!r}\n")

    folders = _stage_folders(config, *_TRAIN_INPUTS)  # now names the train folder too
    _run_stage(folders["train"], model)
    _point_at(config.work_dir, folders)


def cmd_evaluate(config, ablate=False, baseline_mean=False):
    """Score the checkpoint this config trained on the cached test split; write report.txt.

    The ladder reads propagated trust from ``graph.ckpt``, not ``trust.txt``.
    """
    folders = _stage_folders(config, "prepare", *_TRAIN_INPUTS, "train")
    train_split, test_split, _ = load_prepared(folders["prepare"], config.scale)
    params = load_params(os.path.join(folders["train"], "model.ckpt"))
    if ablate:
        ctx, ae_init = _load_context(folders, train_split)
        reports = evaluation.run_ablations(ctx, config.model, test_split, ae_init=ae_init, full_params=params)
    else:
        embeddings = _load_embeddings(folders)
        reports = [
            evaluation.evaluate(params, embeddings, test_split, model_tag="full", seed=config.model.seed)
        ]
    if baseline_mean:
        reports.append(
            evaluation.constant_baseline(global_mean(train_split), test_split, model_tag="mean")
        )
    for report in reports:
        if not np.isfinite(report.rmse):
            raise NumericError(f"non-finite rmse for {report.model_tag}")
    evaluation.write_reports(reports, os.path.join(config.work_dir, "report.txt"))
    for report in reports:
        print(report.line())
    return reports


def cmd_report(work_dir):
    path = os.path.join(work_dir, "report.txt")
    if not os.path.exists(path):
        raise ConfigError(f"no report at {path}; run evaluate first")
    for report in evaluation.read_reports(path):
        print(report.line())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trustrec",
        description="Trust-aware factor-model recommender pipeline.",
    )
    parser.add_argument("--config", help="path to the key = value config file")
    parser.add_argument("--seed", type=int, help="override every stage seed")
    parser.add_argument("--work", help="override the work directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", help="split ratings and cache the trust graph")
    sub.add_parser("train", help="run all pipeline stages and write a checkpoint")
    pe = sub.add_parser("evaluate", help="score the checkpoint on the test split")
    pe.add_argument("--ablate", action="store_true", help="train and score all five ablation variants")
    pe.add_argument("--baseline-mean", action="store_true", help="also report the constant train-mean baseline")
    sub.add_parser("report", help="print the stored evaluation report")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report" and args.work is not None:
            cmd_report(args.work)
            return 0
        if not args.config:
            needs = "--config or --work" if args.command == "report" else "--config"
            raise ConfigError(f"{args.command} needs {needs}")
        config = build_config(parse_config_file(args.config), args.seed, args.work)
        if args.command == "report":
            cmd_report(config.work_dir)
            return 0
        with _WorkLock(config.work_dir):
            if args.command == "prepare":
                cmd_prepare(config)
            elif args.command == "train":
                cmd_train(config)
            elif args.command == "evaluate":
                cmd_evaluate(config, ablate=args.ablate, baseline_mean=args.baseline_mean)
    except (ConfigError, DataFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
