"""The benchmark's tracer still finds every function and name it reads.

``perfbench/spans.py`` wraps trustrec functions by module and name, and its
count functions read argument and attribute names of the program, such as
``targets``, ``ctx``, ``walks``, ``config``, ``path`` and ``num_pairs``.  A
rename in ``src/`` would break ``perfbench/run.py --trace 1`` and nothing
else, so this runs the toy pipeline under the tracer.
"""

import importlib.util
import math
from pathlib import Path

from trustrec.cli import main
from trustrec.synth import toy_bundle, write_bundle

from test_cli import BASE_CONFIG

ROOT = Path(__file__).resolve().parent.parent

# traced, but no command calls them (ROADMAP item 2)
UNCALLED = {"autoencoder.masked_mse", "autoencoder.rating_arrays"}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_opens_a_span(tmp_path, capsys):
    spans = _spans()
    ratings, trust = tmp_path / "ratings.txt", tmp_path / "trust.txt"
    write_bundle(toy_bundle(0), ratings, trust)
    config = tmp_path / "config.txt"
    config.write_text(BASE_CONFIG.format(ratings=ratings, trust=trust, work=tmp_path / "work"))
    commands = (["prepare"], ["train"], ["evaluate", "--ablate", "--baseline-mean"])
    tracer = spans.Tracer()
    tracer.install()  # its sampler thread keeps parallel.both in this process
    try:
        codes = [main(["--config", str(config), *command]) for command in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0], capsys.readouterr().err
    opened = {span.name for span in tracer.spans}
    traced = {f"{module}.{name}" for module, name, _ in spans.TRACED}
    assert sorted(traced - UNCALLED - opened) == []
    metrics = spans.layer_metrics(tracer.spans, 0)
    assert {name: value for name, (value, _) in metrics.items() if not math.isfinite(value)} == {}
