"""Pinned SHA-256 digests of the generated input files.

Criterion 7, the benchmark's workloads, the artifact pins and the toy
fixtures all set their inputs up through ``social_bundle``,
``subsample_top_trust_users`` and ``write_bundle``.  These pins notice a
change anywhere on that path that moves a byte of ``ratings.txt`` or
``trust.txt``: a new random draw, a reordered edge, a reformatted value.
"""

import hashlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from trustrec.data import subsample_top_trust_users
from trustrec.synth import social_bundle, toy_bundle, write_bundle

from test_pins import BUNDLE as PINS_BUNDLE

ROOT = Path(__file__).resolve().parent.parent

# bundle -> (ratings.txt, trust.txt) digests; the two workloads use seed 7
INPUT_PINS = {
    "criterion-7": (
        "ed708b64461e4f2233b311fbe597b499118f5c3d636efa1917e4713aaffbfd73",
        "3e010aec424800c479af017b661aac86aef0eeb297d0e9ff3acff78e0e6e5580",
    ),
    "train-s": (
        "4efc4b74e087beedd2338e0ae7199e3a52f72dcc6c238878c084f46d8b121525",
        "299c22ad4f011fd71fe78b2a6c22804c951a59ef1295a2410180e7c476d4dfaa",
    ),
    "ablate-dense": (
        "b6af6253600b0ba77d8aebb37e6d20032e308e89ac5e22c5ecfd6e2d71131054",
        "687d204aaf2f9d78e292165b4ac135ff3b9e8f0cbd524d23147d19ef0a59b798",
    ),
    "pins": (
        "2f6375e806e54cbd426c7553620a8eda5c31e7ff37b95d08b77682b41f501100",
        "33f1110c2b68019cb0e151c8b1a625372c46c819fd40ad97bebeb004746e9a99",
    ),
    "toy": (
        "18e536022c3275731e8bebdc863c962c5744ffda2da40b1c972b7c4b6c54b4bf",
        "c8a44a18569fcc21138531d6cd84824f2c9bd2ba0aa610285ee5656d6137a3b7",
    ),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _top_users(bundle, count):
    ratings, trust, _ = subsample_top_trust_users(bundle.ratings, bundle.trust, count)
    return SimpleNamespace(ratings=ratings, trust=trust)


def _criterion_7():
    bundle = social_bundle(
        num_users=2600, num_items=1500, num_communities=12, k=10,
        ratings_per_user=(4, 30), member_noise=0.25, rating_noise=0.25,
        trust_per_user=(2, 6), cross_community=0.05, seed=42,
    )
    return _top_users(bundle, 2000)


def _workload(name, seed=7):
    """The bundle perfbench's set-up writes for workload ``name``."""
    workload = _workloads()[name]
    bundle = social_bundle(seed=seed, **workload.bundle)
    return _top_users(bundle, workload.top_users) if workload.top_users else bundle


BUILDERS = {
    "criterion-7": _criterion_7,
    "train-s": lambda: _workload("train-s"),
    "ablate-dense": lambda: _workload("ablate-dense"),
    "pins": lambda: social_bundle(**PINS_BUNDLE),
    "toy": lambda: toy_bundle(0),
}


def input_digests(name, root):
    """SHA-256 of the ratings and trust files written for bundle ``name``."""
    paths = (root / f"{name}-ratings.txt", root / f"{name}-trust.txt")
    write_bundle(BUILDERS[name](), *paths)
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)


@pytest.mark.parametrize("name", sorted(INPUT_PINS))
def test_generated_inputs_match_pins(name, tmp_path):
    assert input_digests(name, tmp_path) == INPUT_PINS[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(INPUT_PINS):
            print(name, input_digests(name, Path(tmp)))
