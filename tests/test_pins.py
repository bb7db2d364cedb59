"""Pinned SHA-256 digests of every stage's output on one small seeded bundle.

Criterion 8 checks that two runs of the same code agree; these pins also
notice a change that moves the bits of every run alike.  The CLI pins cover
the artifacts of ``prepare → train → evaluate --ablate --baseline-mean``,
each command in its own process; the library pins cover one output per
stage, so a failure names the stage that moved.  A change that alters a
random stream on purpose updates exactly the pins of the stages it moves.

The pins hold for numpy 2.4, scipy 1.17 and single-threaded OpenBLAS: both
runs happen in subprocesses with ``OPENBLAS_NUM_THREADS=1``.  Another BLAS,
thread count or library version may round differently and move the float
artifacts.

Run as a script (``python tests/test_pins.py``), this file prints the
library digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

BUNDLE = dict(
    num_users=150, num_items=100, num_communities=4, k=4,
    ratings_per_user=(4, 20), trust_per_user=(2, 5), seed=11,
)
CONFIG = {
    "autoencoder.hidden_sizes": "16,4,16",
    "autoencoder.learning_rate": "0.01",
    "autoencoder.epochs": "5",
    "walks.dimensions": "4",
    "walks.num_walks": "4",
    "walks.walk_length": "20",
    "walks.q": "0.5",
    "graph.max_depth": "2",
    "model.k": "4",
    "model.learning_rate": "0.02",
    "model.epochs": "10",
}

CLI_PINS = {
    "split.ckpt": "b3b524179d8598acc0353f36683d6ee9f654f64ef6a0115fd13112d387f59aa6",
    "codes.ckpt": "672ca97c7210422d2aaf812e0a041bfbc0a02248e4586c124f9ee308af6b0e08",
    "graph.ckpt": "843b210e9fb82b88dd50d42f634e9e8963fc053d218b68a92c4c1648b2a804ad",
    "embeddings.ckpt": "e977e1a5319a5cb42a39685c7cac12abe6b96fd70b6491af965e0abd1f074d2a",
    "model.ckpt": "881f9bd0484ea6d23d2d49fbc6e86be544c1972fc736ccebd809551a6cc65ca2",
    "objective.log": "f3176d0b44f15fdd53b6019da78a41106e8a4882246c683a06b8e9db40ae196c",
    "report.txt": "544e368d9b85fafc685cbc96232cd9b33cf58d10caaea62c18c5174387c483c1",
}

LIBRARY_PINS = {
    "split": "b3d0422baedc35555a04cb28f132395d261bdbb80a2199f9b305e2a714778718",
    "codes": "62c72f75d445708e74daeb184f2eabafcf26da1fcc530a0b8019a60de811cc6a",
    "labels": "082bb712e153105bb9795050f229ccef78fbaac58b19d789ca814b8958de1c16",
    "leaders": "54ca8635d78e7ff1d1a4d31a50007e93808fc418fc115c517a6736a7b1fad4a9",
    "propagated": "096a71a9a7c929000f0ff8ffcc410eebb71865da57785576ab4a5c4b17cf7840",
    "walks": "648597d849eaa05873436d84fd8c215f39cbe0b47d0bbc4ef194b7e56aa5942f",
    "embeddings": "9f6f7a1022165907565febb5224d3e2634b88a8f74e83e16c23a1fca7b9040d2",
    "model": "d6304423476839069e3321cf8597c0f60ee109e8f9af7574a1a2bd6bd5321152",
}


def _digest(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def library_digests():
    """One digest per stage output, computed straight from the library."""
    from trustrec.cli import build_config
    from trustrec.embed import generate_walks, train_embeddings
    from trustrec.evaluation import autoencoder_inits
    from trustrec.graph import community_leaders, louvain, propagate_trust
    from trustrec.data import split
    from trustrec.model import TrainingContext, train
    from trustrec.synth import social_bundle

    config = build_config(CONFIG)
    bundle = social_bundle(**BUNDLE)
    graph = bundle.trust
    train_split, test_split = split(bundle.ratings, config.split)
    ae = config.autoencoder
    init_p, init_q = autoencoder_inits(train_split, config.model.k, ae, replace(ae, seed=ae.seed + 1))
    communities = louvain(graph, seed=config.graph.louvain_seed)
    leaders = community_leaders(graph, communities, damping=config.graph.damping)
    propagated = propagate_trust(graph, config.graph.decay, config.graph.max_depth)
    walks = generate_walks(graph, config.walks)
    table = train_embeddings(walks, graph.num_users, config.walks)
    ctx = TrainingContext(train_split, trust=propagated, embeddings=table, leaders=leaders)
    params, history = train(ctx, config.model, init_p, init_q)
    return {
        "split": _digest(*(getattr(s, f) for s in (train_split, test_split) for f in ("users", "items", "values"))),
        "codes": _digest(init_p, init_q),
        "labels": _digest(communities.labels, [communities.modularity]),
        "leaders": _digest(leaders.leaders),
        "propagated": _digest(propagated.truster, propagated.trustee, propagated.values),
        "walks": _digest([len(w) for w in walks], np.concatenate(walks)),
        "embeddings": _digest(table),
        "model": _digest(params.P, params.Q, params.W, history),
    }


def _env():
    import trustrec

    root = os.path.dirname(os.path.dirname(trustrec.__file__))
    return dict(os.environ, PYTHONPATH=root, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _mismatches(got, pins):
    return {name: got.get(name) for name, pin in pins.items() if got.get(name) != pin}


def cli_digests(root):
    """SHA-256 of each pinned artifact of one CLI run in ``root``."""
    from trustrec.synth import social_bundle, write_bundle

    write_bundle(social_bundle(**BUNDLE), root / "ratings.txt", root / "trust.txt")
    paths = {"paths.ratings": root / "ratings.txt", "paths.trust": root / "trust.txt", "paths.work": root / "work"}
    config = root / "config.txt"
    config.write_text("".join(f"{k} = {v}\n" for k, v in {**paths, **CONFIG}.items()))
    for command in (["prepare"], ["train"], ["evaluate", "--ablate", "--baseline-mean"]):
        subprocess.run(
            [sys.executable, "-m", "trustrec.cli", "--config", str(config), *command],
            env=_env(), check=True, capture_output=True,
        )
    digests = {}
    for folder, _, files in os.walk(root / "work"):
        for name in files:
            if name in CLI_PINS:
                assert name not in digests, f"two {name} artifacts"
                with open(os.path.join(folder, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_cli_artifacts_match_pins(tmp_path):
    assert _mismatches(cli_digests(tmp_path), CLI_PINS) == {}


def test_library_stage_outputs_match_pins():
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=_env(), check=True, capture_output=True, text=True,
    )
    assert _mismatches(json.loads(done.stdout), LIBRARY_PINS) == {}


if __name__ == "__main__":
    print(json.dumps(library_digests()))
