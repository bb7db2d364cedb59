import errno
import fcntl
import io
import importlib.util
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trustrec
from trustrec import cli, data
from trustrec import graph as graph_module
from trustrec import model as model_module
from trustrec import serialize
from trustrec.cli import (
    DEFAULTS,
    ConfigError,
    _SEED_KEYS,
    build_config,
    main,
    parse_config_file,
)
from trustrec.data import IdMap, load_ratings, load_trust
from trustrec.evaluation import evaluate
from trustrec.model import ModelParams, load_params, save_params
from trustrec.synth import social_bundle, toy_bundle, write_bundle

from oracles import reference_sgd_epoch
from test_input_pins import _workload, _workloads
from test_pins import BUNDLE as PINS_BUNDLE
from test_pins import CONFIG as PINS_CONFIG
from test_pins import _env

BASE_CONFIG = """\
paths.ratings = {ratings}
paths.trust = {trust}
paths.work = {work}
split.train_fraction = 0.8
autoencoder.hidden_sizes = 6,3,6
autoencoder.learning_rate = 0.01
autoencoder.batch_size = 4
autoencoder.epochs = 3
walks.dimensions = 3
walks.num_walks = 3
walks.walk_length = 10
walks.window = 2
walks.epochs = 1
model.k = 3
model.learning_rate = 0.02
model.epochs = 5
"""

# settings whose check must reject NaN, which fails every comparison
_NAN_KEYS = (
    "model.learning_rate",
    *(f"model.lam_{t}" for t in "pqwtc"),
    "autoencoder.learning_rate",
    "walks.p",
    "walks.q",
    "walks.learning_rate",
)

# one key per section that a train stage reads: (a new value, that stage)
STAGE_OF_CHANGE = {
    "autoencoder.epochs": ("4", "autoencoder"),
    "walks.p": ("0.5", "embed"),
    "graph.decay": ("0.7", "graph"),
    "model.epochs": ("7", "train"),
}


def config_value(config, key):
    """The value a built config holds for the dotted ``key``."""
    section, name = key.split(".")
    if section in cli.SECTIONS:
        return getattr(getattr(config, section), name)
    scale_min, scale_max = config.scale
    return {
        "paths.ratings": config.ratings_path,
        "paths.trust": config.trust_path,
        "paths.work": config.work_dir,
        "data.scale_min": scale_min,
        "data.scale_max": scale_max,
    }[key]


def write_dataset(root):
    rng = np.random.default_rng(0)
    ratings = root / "ratings.txt"
    with open(ratings, "w") as fh:
        seen = set()
        for _ in range(34):
            u, i = int(rng.integers(0, 8)), int(rng.integers(0, 6))
            if (u, i) in seen:
                continue
            seen.add((u, i))
            fh.write(f"{100 + u},{200 + i},{int(rng.integers(1, 6))}\n")
    trust = root / "trust.txt"
    edges = [
        (100, 101), (101, 102), (102, 100), (103, 104), (104, 105),
        (105, 103), (100, 103), (106, 107), (107, 106), (101, 106),
    ]
    with open(trust, "w") as fh:
        for u, v in edges:
            fh.write(f"{u},{v},1.0\n")
    return ratings, trust


@pytest.fixture
def workspace(tmp_path):
    ratings, trust = write_dataset(tmp_path)

    def config_path(name="config.txt", work="work", **overrides):
        text = BASE_CONFIG.format(ratings=ratings, trust=trust, work=tmp_path / work)
        for key, value in overrides.items():
            text += f"{key} = {value}\n"
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return tmp_path, config_path


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        # graph.centrality is a removed key: PageRank picks every leader
        for line in ("model.kk = 3\n", "graph.centrality = pagerank\n"):
            path.write_text(line)
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_file(path)
            assert main(["--config", str(path), "prepare"]) == 2
        # a library caller's mapping gets the same check as a config file
        with pytest.raises(ConfigError, match="unknown key 'graph.centrality'"):
            build_config({"graph.centrality": "hits", "model.kk": "3"})

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("model.k 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# heading\n\nmodel.k = 4  # trailing\n")
        assert parse_config_file(path) == {"model.k": "4"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.txt")

    def test_defaults_fill_every_key(self):
        config = build_config({})
        assert {key: config_value(config, key) for key in DEFAULTS} == {
            key: default for key, (_, default) in DEFAULTS.items()
        }
        assert config.model.k == 10
        assert config.walks.walk_length == 80
        assert config.split.train_fraction == 0.8
        assert config.autoencoder.hidden_sizes == (128, 64, 32, 10, 32, 64, 128)

    def test_unparsable_value(self):
        with pytest.raises(ConfigError):
            build_config({"model.k": "banana"})

    def test_out_of_domain_value(self):
        for key, value in (
            ("model.k", "0"),
            ("walks.p", "-1.0"),
            ("graph.decay", "0"),
            ("graph.decay", "1.5"),
            ("graph.max_depth", "0"),
            ("graph.damping", "1.5"),
            ("graph.damping", "-0.1"),
            ("walks.learning_rate", "0"),
            ("walks.batch_size", "0"),
            ("walks.batch_size", "-1"),
            ("split.train_fraction", "0"),
            ("split.train_fraction", "1.0"),
            ("autoencoder.hidden_sizes", "8,0,8"),
            *((key, "-1") for key in _SEED_KEYS),
            *((key, "nan") for key in _NAN_KEYS),
            ("data.scale_min", "nan"),
            ("data.scale_max", "nan"),
            ("data.scale_min", "6"),
            ("data.scale_max", "1"),
        ):
            with pytest.raises(ConfigError):
                build_config({key: value})

    def test_hidden_sizes_parse(self):
        config = build_config({
            "autoencoder.hidden_sizes": "8, 3, 8",
            "walks.dimensions": "3",
            "model.k": "3",
        })
        assert config.autoencoder.hidden_sizes == (8, 3, 8)

    def test_disagreeing_widths_rejected(self):
        with pytest.raises(ConfigError, match="code width"):
            build_config({"autoencoder.hidden_sizes": "8, 3, 8"})
        with pytest.raises(ConfigError, match="walks.dimensions"):
            build_config({"walks.dimensions": "4"})

    def test_readme_config_reference_lists_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        reference = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
        listed = {}
        for line in reference.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].startswith("`"):
                listed[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[1])
        want = {}
        for key in DEFAULTS:
            section, name = key.split(".", 1)
            want.setdefault(section, []).append(name)
        assert listed == want

    def test_seed_override_reaches_every_stage(self):
        config = build_config({}, seed_override=77)
        assert all(config_value(config, key) == 77 for key in _SEED_KEYS)

    def test_work_override(self):
        config = build_config({}, work_override="elsewhere")
        assert config.work_dir == "elsewhere"


def diverging_epoch(params, *_):
    """An SGD epoch that leaves non-finite factors, whatever the step rule."""
    return ModelParams(np.full_like(params.P, np.nan), params.Q, params.W)


class TestPipeline:
    def run(self, config, *args):
        return main(["--config", config, *args])

    def test_full_run_and_report(self, workspace, capsys):
        tmp_path, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0
        assert self.run(config, "evaluate") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("full\t")
        assert (tmp_path / "work" / "report.txt").exists()
        assert self.run(config, "report") == 0
        assert capsys.readouterr().out.strip().splitlines() == lines

    def test_missing_input_exits_2(self, workspace):
        _, config_path = workspace
        config = config_path(**{"paths.ratings": "nowhere.txt"})
        assert self.run(config, "prepare") == 2

    def test_evaluate_before_train_exits_2(self, workspace):
        _, config_path = workspace
        config = config_path(work="fresh")
        assert self.run(config, "prepare") == 0
        assert self.run(config, "evaluate") == 2

    def test_prepare_rerun_reuses_artifacts(self, workspace):
        tmp_path, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        work = tmp_path / "work"
        stage = [d for d in os.listdir(work) if d.startswith("prepare-")]
        assert len(stage) == 1
        train_file = work / stage[0] / "train.txt"
        before = (train_file.stat().st_mtime_ns, train_file.read_bytes())
        assert self.run(config, "prepare") == 0
        after = (train_file.stat().st_mtime_ns, train_file.read_bytes())
        assert after == before

    @pytest.mark.parametrize("key", list(STAGE_OF_CHANGE))
    def test_config_change_recomputes_only_affected_stage(self, workspace, key):
        value, stage = STAGE_OF_CHANGE[key]
        tmp_path, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0
        work = tmp_path / "work"
        names = ("prepare", "autoencoder", "graph", "embed", "train")

        def stages(prefix):
            return sorted(d for d in os.listdir(work) if d.startswith(prefix + "-"))

        first = {p: stages(p) for p in names}
        changed = config_path(name="changed.txt", **{key: value})
        assert self.run(changed, "train") == 0
        second = {p: stages(p) for p in names}
        assert {p for p in names if second[p] != first[p]} == {stage, "train"}
        for p in (stage, "train"):
            assert len(second[p]) == 2 and set(first[p]) < set(second[p])

    def test_train_parses_prepared_data_once(self, workspace, monkeypatch):
        _, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        loaded = []

        def counting(path, *args, **kwargs):
            loaded.append(os.path.basename(path))
            return load_ratings(path, *args, **kwargs)

        load_ratings = cli.load_ratings
        monkeypatch.setattr(cli, "load_ratings", counting)
        assert self.run(config, "train") == 0
        assert loaded == []
        assert self.run(config, "train") == 0
        assert loaded == []

    def interrupt_then_rerun(self, workspace, monkeypatch, command, module, writer):
        """Crash ``command`` right after ``module.writer`` has written; the stage's files after a rerun."""
        tmp_path, config_path = workspace
        config = config_path()
        if command == "train":
            assert self.run(config, "prepare") == 0
        write = getattr(module, writer)

        class Interrupted(Exception):
            pass

        def write_then_crash(*args, **kwargs):
            write(*args, **kwargs)
            raise Interrupted

        monkeypatch.setattr(module, writer, write_then_crash)
        with pytest.raises(Interrupted):
            self.run(config, command)
        work = tmp_path / "work"
        # a half-made stage is never taken for a finished one
        assert all(d.endswith(".tmp") for d in os.listdir(work) if d.startswith(command + "-"))
        monkeypatch.setattr(module, writer, write)
        assert self.run(config, command) == 0
        stage = [d for d in os.listdir(work) if d.startswith(command + "-")]
        assert len(stage) == 1
        assert not [d for d in os.listdir(work) if d.endswith(".tmp")]
        return sorted(os.listdir(work / stage[0]))

    def test_train_interrupted_after_checkpoint_is_redone(self, workspace, monkeypatch):
        files = self.interrupt_then_rerun(workspace, monkeypatch, "train", cli, "save_params")
        assert files == ["model.ckpt", "objective.log"]

    def test_prepare_interrupted_mid_write_is_redone(self, workspace, monkeypatch):
        files = self.interrupt_then_rerun(workspace, monkeypatch, "prepare", data, "save_trust")
        assert files == ["item_map.txt", "split.ckpt", "test.txt", "train.txt", "trust.txt", "user_map.txt"]

    def test_evaluate_parses_only_what_it_scores(self, workspace, monkeypatch):
        _, config_path = workspace
        config = config_path()
        for command in ("prepare", "train"):
            assert self.run(config, command) == 0
        loaded = []

        def counting(load):
            def wrapper(path, *args, **kwargs):
                loaded.append(os.path.basename(path))
                return load(path, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "load_ratings", counting(cli.load_ratings))
        monkeypatch.setattr(cli, "load_trust", counting(cli.load_trust))
        assert self.run(config, "evaluate") == 0
        assert loaded == []
        for flag in ("--ablate", "--baseline-mean"):
            assert self.run(config, "evaluate", flag) == 0
            assert loaded == []

    def test_split_checkpoint_equals_text_reparse(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        # a stored 0.0 on a scale around zero, and users 7 and 8 only in the trust file
        ratings.write_text("1,10,0.0\n2,10,-2.0\n1,11,1.5\n3,12,2.0\n2,12,0.0\n3,10,-0.5\n4,11,1.0\n")
        trust = tmp_path / "trust.txt"
        trust.write_text("3,1\n7,2,0.5\n1,3,0.25\n8,8\n1,8\n2,7,0.75\n3,4\n")
        config_file = tmp_path / "config.txt"
        config_file.write_text(
            f"paths.ratings = {ratings}\npaths.trust = {trust}\npaths.work = {tmp_path / 'work'}\n"
            "data.scale_min = -2\ndata.scale_max = 2\nsplit.train_fraction = 0.6\n"
        )
        assert main(["--config", str(config_file), "prepare"]) == 0
        config = build_config(parse_config_file(str(config_file)))
        prep = cli._stage_folders(config, "prepare")["prepare"]
        train_split, test_split, graph = data.load_prepared(prep, config.scale)

        user_map = IdMap.load(os.path.join(prep, "user_map.txt"))
        item_map = IdMap.load(os.path.join(prep, "item_map.txt"))
        for loaded, name in ((train_split, "train.txt"), (test_split, "test.txt")):
            parsed = load_ratings(os.path.join(prep, name), config.scale, user_map, item_map)
            parsed = parsed.with_num_users(len(user_map))
            assert (loaded.num_users, loaded.num_items) == (parsed.num_users, parsed.num_items) == (6, 3)
            assert (loaded.r_min, loaded.r_max) == (parsed.r_min, parsed.r_max) == (-2.0, 2.0)
            for field in ("users", "items", "values"):
                got, want = getattr(loaded, field), getattr(parsed, field)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
        assert 0.0 in np.concatenate([train_split.values, test_split.values])
        parsed_graph = load_trust(os.path.join(prep, "trust.txt"), user_map)
        assert graph.num_users == parsed_graph.num_users == 6
        assert list(graph.edges()) == list(parsed_graph.edges())
        assert graph.num_edges == parsed_graph.num_edges == 6
        assert graph.self_loops_skipped == parsed_graph.self_loops_skipped

    def test_commands_load_only_the_scipy_they_use(self, workspace):
        tmp_path, config_path = workspace
        config = config_path()
        probe = (
            "import json, sys\n"
            "from trustrec.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trustrec.__file__)))

        def scipy_modules(config, *command):
            done = subprocess.run(
                [sys.executable, "-c", probe, "--config", config, *command],
                capture_output=True, text=True, check=True, env=env,
            )
            return json.loads(done.stdout.strip().splitlines()[-1])

        def special(modules):
            return [m for m in modules if m == "scipy.special" or m.startswith("scipy.special.")]

        assert scipy_modules(config, "prepare") == []
        train = scipy_modules(config, "train")
        assert "scipy.sparse" in train
        assert not special(train)
        assert scipy_modules(config, "evaluate") == []
        # this social operator fills more than a third of its matrix, so it
        # is a numpy array; the pins bundle's fills an eighth and stays CSR
        assert scipy_modules(config, "evaluate", "--ablate") == []
        ratings, trust = tmp_path / "pins_ratings.txt", tmp_path / "pins_trust.txt"
        write_bundle(social_bundle(**PINS_BUNDLE), ratings, trust)
        settings = {**PINS_CONFIG, "paths.ratings": ratings, "paths.trust": trust, "paths.work": tmp_path / "pins"}
        sparse_side = tmp_path / "pins.txt"
        sparse_side.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        for command in ("prepare", "train"):
            scipy_modules(str(sparse_side), command)
        ablate = scipy_modules(str(sparse_side), "evaluate", "--ablate")
        assert "scipy.sparse" in ablate
        assert not special(ablate)

    def test_package_import_loads_no_submodule(self):
        # the second is what perfbench imports into the process that times the
        # commands; each command's peak-RSS reading inherits its high-water mark
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trustrec.__file__)))
        for imports, loaded in (
            ("trustrec", ["trustrec"]),
            ("trustrec.data, trustrec.synth", ["trustrec", "trustrec.data", "trustrec.synth"]),
        ):
            probe = f"import json, sys, {imports}\nprint(json.dumps(sorted(m for m in sys.modules if 'trustrec' in m)))\n"
            done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
            assert json.loads(done.stdout) == loaded, imports

    def test_changed_source_misses_the_stage_cache(self, workspace):
        tmp_path, config_path = workspace
        config = config_path()
        package = tmp_path / "pkg" / "trustrec"
        shutil.copytree(os.path.dirname(trustrec.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(package.parent))

        def prepare():
            subprocess.run(
                [sys.executable, "-m", "trustrec.cli", "--config", config, "prepare"],
                env=env, check=True,
            )
            return sorted(d for d in os.listdir(tmp_path / "work") if d.startswith("prepare-"))

        first = prepare()
        assert prepare() == first
        with open(package / "synth.py", "a") as fh:
            fh.write("\n# edited\n")
        second = prepare()
        assert len(first) == 1 and len(second) == 2

    def test_perfbench_tracer_sees_every_layer(self, workspace):
        _, config_path = workspace
        config = config_path()
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location("perfbench_spans", root / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        # the trace.* metrics compare a traced round with an untraced one
        expected = {m["name"] for m in declared if not m["name"].startswith("trace.")}

        tracer = spans.Tracer()
        tracer.install()
        try:
            for command in (("prepare",), ("train",), ("evaluate", "--ablate")):
                assert self.run(config, *command) == 0
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, 0)
        assert expected <= metrics.keys()
        assert metrics["autoencoder.batches"][0] > 0
        assert metrics["model.epochs"][0] > 0
        assert all(s.end is not None for s in tracer.spans)

    def test_seed_flag_changes_training_artifacts(self, workspace):
        tmp_path, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0
        assert main(["--config", config, "--seed", "9", "prepare"]) == 0
        assert main(["--config", config, "--seed", "9", "train"]) == 0
        work = tmp_path / "work"
        train_dirs = [d for d in os.listdir(work) if d.startswith("train-")]
        assert len(train_dirs) == 2

    def test_ablate_and_baseline_report_lines(self, workspace, capsys):
        _, config_path = workspace
        config = config_path()
        for command in ("prepare", "train"):
            assert self.run(config, command) == 0
        capsys.readouterr()
        assert self.run(config, "evaluate", "--ablate", "--baseline-mean") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        tags = [line.split("\t")[0] for line in lines]
        assert tags == ["mf", "mf+ae", "mf+ae+trust", "mf+ae+trust+leader", "full", "mean"]

    def test_byte_identical_across_work_dirs(self, workspace):
        tmp_path, config_path = workspace
        first = config_path(name="one.txt", work="work_one")
        second = config_path(name="two.txt", work="work_two")
        for config in (first, second):
            for command in ("prepare", "train", "evaluate"):
                assert self.run(config, command) == 0
        reports = [
            (tmp_path / w / "report.txt").read_bytes() for w in ("work_one", "work_two")
        ]
        assert reports[0] == reports[1]

        def checkpoint(work):
            root = tmp_path / work
            stage = [d for d in os.listdir(root) if d.startswith("train-")]
            return (root / stage[0] / "model.ckpt").read_bytes()

        assert checkpoint("work_one") == checkpoint("work_two")

    def test_divergent_training_exits_3(self, workspace, monkeypatch):
        _, config_path = workspace
        config = config_path(name="diverge.txt", work="work_bad")
        assert self.run(config, "prepare") == 0
        monkeypatch.setattr(model_module, "sgd_epoch", diverging_epoch)
        assert self.run(config, "train") == 3

    def toy_config(self, tmp_path, extra=""):
        ratings, trust = tmp_path / "ratings.txt", tmp_path / "trust.txt"
        write_bundle(toy_bundle(0), ratings, trust)
        config = tmp_path / "config.txt"
        text = BASE_CONFIG.format(ratings=ratings, trust=trust, work=tmp_path / "work")
        config.write_text(text + extra)
        return str(config)

    def test_unconverged_centrality_exits_3(self, tmp_path, capsys, monkeypatch):
        def unconverged(adjacency, **kwargs):
            raise RuntimeError("pagerank did not converge in 0 iterations")

        monkeypatch.setattr(graph_module, "pagerank", unconverged)
        config = self.toy_config(tmp_path)
        assert self.run(config, "prepare") == 0
        capsys.readouterr()
        assert self.run(config, "train") == 3
        assert "pagerank did not converge" in capsys.readouterr().err

    def test_evaluate_scores_what_its_own_config_trained(self, tmp_path, capsys):
        config = self.toy_config(tmp_path)
        for command in ("prepare", "train", "evaluate"):
            assert self.run(config, command) == 0
        scored = capsys.readouterr().out
        work = tmp_path / "work"
        pointers = {p.name: p.read_text() for p in work.glob("*.current")}
        # another config's train fails in its model stage, after its own
        # embedding stage is done
        other = tmp_path / "other.txt"
        other.write_text(Path(config).read_text() + "walks.seed = 5\n")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "sgd_epoch", diverging_epoch)
            assert self.run(str(other), "train") == 3
        assert len(list(work.glob("embed-*"))) == 2
        capsys.readouterr()
        assert self.run(config, "evaluate") == 0
        assert capsys.readouterr().out == scored
        # the pointers still name the one run that finished
        assert {p.name: p.read_text() for p in work.glob("*.current")} == pointers
        assert self.run(str(other), "evaluate") == 2
        assert "no train stage for this config" in capsys.readouterr().err

    def test_truncated_checkpoint_error_names_its_file(self, tmp_path, capsys):
        config = self.toy_config(tmp_path)
        for command in ("prepare", "train"):
            assert self.run(config, command) == 0
        [checkpoint] = (tmp_path / "work").glob("train-*/model.ckpt")
        checkpoint.write_bytes(checkpoint.read_bytes()[:-8])
        capsys.readouterr()
        assert self.run(config, "evaluate") == 2
        assert f"{checkpoint}: truncated checkpoint file" in capsys.readouterr().err

    def test_damping_near_one_trains(self, tmp_path):
        config = self.toy_config(tmp_path, "graph.damping = 0.99\n")
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0

    def test_bad_setting_exits_2_before_any_stage(self, workspace, capsys):
        tmp_path, config_path = workspace
        config = config_path()
        assert main(["--config", config, "--seed", "-1", "prepare"]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert self.run(config, "prepare") == 0
        assert self.run(config_path(name="bad.txt", **{"graph.decay": "0"}), "train") == 2
        assert not any(d.startswith("autoencoder") for d in os.listdir(tmp_path / "work"))

    def test_work_lock_blocks_concurrent_commands(self, workspace):
        tmp_path, config_path = workspace
        config = config_path(work="locked")
        os.makedirs(tmp_path / "locked", exist_ok=True)
        with open(tmp_path / "locked" / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert self.run(config, "prepare") == 2
        assert self.run(config, "prepare") == 0

    def test_killed_command_leaves_no_lock(self, workspace):
        tmp_path, config_path = workspace
        config = config_path(work="killed")
        holder = (
            "import sys, time\n"
            "from trustrec.cli import _WorkLock\n"
            "with _WorkLock(sys.argv[1]):\n"
            "    print('locked', flush=True)\n"
            "    time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trustrec.__file__)))
        child = subprocess.Popen(
            [sys.executable, "-c", holder, str(tmp_path / "killed")],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "locked"
            assert self.run(config, "prepare") == 2
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
            child.stdout.close()
        assert self.run(config, "prepare") == 0

    @pytest.mark.parametrize("key", ["paths.ratings", "paths.trust"])
    def test_unset_input_path_exits_2_naming_it(self, workspace, capsys, key):
        tmp_path, config_path = workspace
        config = Path(config_path())
        lines = config.read_text().splitlines(keepends=True)
        config.write_text("".join(line for line in lines if not line.startswith(key)))
        assert self.run(str(config), "prepare") == 2
        assert f"{key} is not set" in capsys.readouterr().err

    def test_report_without_work_or_config_exits_2(self, capsys):
        assert main(["report"]) == 2
        assert "report needs --config or --work" in capsys.readouterr().err

    def test_stage_command_without_config_exits_2(self, capsys):
        for command in ("prepare", "train", "evaluate"):
            assert main([command]) == 2
            assert f"{command} needs --config" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_3(self, workspace, capsys):
        tmp_path, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0
        (stage,) = (tmp_path / "work").glob("train-*")
        params = load_params(stage / "model.ckpt")
        params.P[0, 0] = np.nan
        save_params(params, stage / "model.ckpt")
        capsys.readouterr()
        assert self.run(config, "evaluate") == 3
        assert "non-finite rmse for full" in capsys.readouterr().err

    def test_stage_folders_are_named_from_the_config_alone(self, workspace):
        tmp_path, config_path = workspace
        config = config_path(work="named")
        folders = cli._stage_folders(build_config(parse_config_file(config)))
        assert sorted(folders) == ["autoencoder", "embed", "graph", "prepare", "train"]
        assert not (tmp_path / "named").exists()
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0
        made = {path.name for path in (tmp_path / "named").iterdir() if path.is_dir()}
        assert made == {os.path.basename(folder) for folder in folders.values()}

    def test_corrupt_checkpoint_header_exits_2(self, workspace, capsys):
        tmp_path, config_path = workspace
        config = config_path()
        assert self.run(config, "prepare") == 0
        assert self.run(config, "train") == 0
        (path,) = (tmp_path / "work").glob("train-*/model.ckpt")
        raw = bytearray(path.read_bytes())
        ndim = raw.index(struct.pack("<I", 1) + b"P") + 5  # P's ndim follows its name
        assert struct.unpack_from("<I", raw, ndim) == (2,)
        struct.pack_into("<q", raw, ndim + 4, 2**40)  # P's first dimension
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert self.run(config, "evaluate") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name", ["config.txt", "ratings.txt", "trust.txt", "report.txt"])
    def test_text_that_is_not_utf8_exits_2(self, workspace, capsys, name):
        tmp_path, config_path = workspace
        config = config_path()
        with open(tmp_path / name, "ab") as fh:
            fh.write(b"\xff\n")
        argv = ["--work", str(tmp_path), "report"] if name == "report.txt" else ["--config", config, "prepare"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / name}:")

    def test_report_with_missing_file_exits_2(self, tmp_path):
        assert main(["--work", str(tmp_path), "report"]) == 2

    def test_truncated_report_exits_2(self, tmp_path, capsys):
        (tmp_path / "report.txt").write_text("mf\t1.1\t12\t0\nfull\t0.8\t12\n")
        assert main(["--work", str(tmp_path), "report"]) == 2
        assert "report.txt:2:" in capsys.readouterr().err

    def prepare_fails(self, tmp_path, capsys, ratings_text, **overrides):
        """Run prepare on ``ratings_text``; expect exit 2 and no finished prepare stage."""
        ratings, trust = tmp_path / "ratings.txt", tmp_path / "trust.txt"
        ratings.write_text(ratings_text)
        trust.write_text("1,2\n")
        config = tmp_path / "config.txt"
        text = BASE_CONFIG.format(ratings=ratings, trust=trust, work=tmp_path / "work")
        config.write_text(text + "".join(f"{key} = {value}\n" for key, value in overrides.items()))
        assert self.run(str(config), "prepare") == 2
        leftovers = [d for d in os.listdir(tmp_path / "work") if d.startswith("prepare") and not d.endswith(".tmp")]
        assert leftovers == []
        return capsys.readouterr().err

    def test_empty_ratings_exit_2(self, tmp_path, capsys):
        err = self.prepare_fails(tmp_path, capsys, "")
        assert f"no ratings in {str(tmp_path / 'ratings.txt')!r}" in err
        # the failed stage's folder goes once the next command holds the lock,
        # though the fixed input gives the stage another key
        work = tmp_path / "work"
        assert [d for d in os.listdir(work) if d.endswith(".tmp")]
        (tmp_path / "ratings.txt").write_text("".join(f"1,{10 + i},{1 + i % 5}\n" for i in range(10)))
        assert self.run(str(tmp_path / "config.txt"), "prepare") == 0
        assert not [d for d in os.listdir(work) if d.endswith(".tmp")]

    def test_killed_command_leaves_no_temporary_file(self, tmp_path):
        config = self.toy_config(tmp_path)
        for command in ("prepare", "train"):
            assert self.run(config, command) == 0
        # evaluate killed between writing report.txt's temporary file and renaming it
        probe = (
            "import os, signal, sys\n"
            "from trustrec.cli import main\n"
            "rename = os.replace\n"
            "def killed(src, dst):\n"
            "    if os.path.basename(dst) == 'report.txt':\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    rename(src, dst)\n"
            "os.replace = killed\n"
            "main(sys.argv[1:])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trustrec.__file__)))
        done = subprocess.run([sys.executable, "-c", probe, "--config", config, "evaluate"],
                              env=env, stdout=subprocess.DEVNULL)
        assert done.returncode == -signal.SIGKILL
        work = tmp_path / "work"
        assert list(work.glob("report.txt.*.tmp"))
        assert self.run(config, "prepare") == 0
        assert not [name for _, dirs, names in os.walk(work) for name in dirs + names if name.endswith(".tmp")]

    def test_split_with_an_empty_side_exits_2(self, tmp_path, capsys):
        err = self.prepare_fails(tmp_path, capsys, "1,10,4\n2,11,3\n", **{"split.train_fraction": "0.8"})
        assert "2 train and 0 test ratings" in err

    @pytest.mark.parametrize(
        "trust_text",
        ["", "100,100\n101,101\n", "300,301\n301,302,0.5\n", None],
        ids=["empty-trust", "self-loops-only", "trust-only-users", "single-user"],
    )
    def test_degenerate_trust_never_crashes(self, workspace, trust_text):
        tmp_path, config_path = workspace
        if trust_text is None:  # one user, who trusts nobody
            (tmp_path / "ratings.txt").write_text("".join(f"100,{200 + i},{1 + i % 5}\n" for i in range(10)))
            trust_text = ""
        (tmp_path / "trust.txt").write_text(trust_text)
        config = config_path()
        for command in (("prepare",), ("train",), ("evaluate", "--ablate")):
            assert self.run(config, *command) in (0, 2, 3)


class Nth:
    """Stands in for ``real``, except that its ``nth`` call runs ``fail``; counts the calls."""

    def __init__(self, real, nth=None, fail=None):
        self.real, self.nth, self.fail, self.calls = real, nth, fail, 0

    @property
    def hit(self):
        return self.nth is not None and self.calls >= self.nth

    def __call__(self, *args):
        self.calls += 1
        return (self.fail if self.calls == self.nth else self.real)(*args)


def disk_full(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestCrashSweep:
    """A write failing at each persistence point of a run, then recovery.

    As in Pillai et al. (OSDI 2014), each ``os.replace`` of a clean
    ``prepare → train → evaluate`` run fails in turn, and so does each
    checkpoint write, halfway through its bytes.  The command that hits the
    fault must exit 2; ``evaluate`` must then fail or print the clean report;
    and rerunning all three commands must leave exactly the clean run's
    files, with no temporary file or folder.
    """

    COMMANDS = (("prepare",), ("train",), ("evaluate", "--ablate", "--baseline-mean"))
    SMALL = (
        "autoencoder.hidden_sizes = 8,4,8\nautoencoder.epochs = 2\nmodel.k = 4\n"
        "walks.dimensions = 4\nwalks.num_walks = 1\nwalks.walk_length = 10\nmodel.epochs = 3\n"
    )

    @pytest.fixture
    def run(self, tmp_path, capsys):
        """``run(command, work)``: its exit code (None if it raised) and what it printed."""
        ratings, trust = tmp_path / "ratings.txt", tmp_path / "trust.txt"
        write_bundle(toy_bundle(0), ratings, trust)
        config = tmp_path / "config.txt"
        config.write_text(BASE_CONFIG.format(ratings=ratings, trust=trust, work=tmp_path / "work") + self.SMALL)

        def run(command, work):
            capsys.readouterr()
            try:
                code = main(["--config", str(config), "--work", str(work), *command])
            except Exception:
                code = None
            return code, capsys.readouterr().out

        return run

    @staticmethod
    def files(work):
        """Every file under ``work`` by relative path, after checking that none is temporary."""
        out = {}
        for root, dirs, names in os.walk(work):
            assert not [name for name in dirs + names if name.endswith(".tmp")], root
            for name in names:
                path = os.path.join(root, name)
                out[os.path.relpath(path, work)] = Path(path).read_bytes()
        return out

    def sweep(self, run, tmp_path, target, name, fail):
        """Fail each call of ``target.name`` in a run in turn by ``fail``; check the recovery."""
        counter = Nth(getattr(target, name))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(target, name, counter)
            for command in self.COMMANDS:
                code, report = run(command, tmp_path / "clean")
                assert code == 0, command
        clean = self.files(tmp_path / "clean")
        assert counter.calls > 0
        for nth in range(1, counter.calls + 1):
            work = tmp_path / f"{name}-{nth}"
            fault = Nth(counter.real, nth, fail)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(target, name, fault)
                for command in self.COMMANDS:
                    code, _ = run(command, work)
                    if fault.hit:
                        break
                    assert code == 0, (nth, command)
            assert fault.hit and code == 2, f"{command} returned {code} when call {nth} of {name} failed"
            code, printed = run(self.COMMANDS[-1], work)
            assert code != 0 or printed == report, f"evaluate printed another report after call {nth}"
            for command in self.COMMANDS:
                assert run(command, work)[0] == 0, (nth, command)
            assert self.files(work) == clean, f"a rerun after call {nth} of {name} failed"
        return counter.calls

    def test_each_replace_fails_in_turn(self, run, tmp_path):
        # stage folders, checkpoints, .current pointers and report.txt
        assert self.sweep(run, tmp_path, os, "replace", disk_full) == 17

    def test_each_checkpoint_write_stops_halfway(self, run, tmp_path):
        write_body = serialize._write_body

        def half_written(fh, *body):
            whole = io.BytesIO()
            write_body(whole, *body)
            data = whole.getvalue()
            fh.write(data[: 12 + (len(data) - 12) // 2])  # the magic and version, then half the rest
            disk_full()

        # split, graph, embeddings, codes and model
        assert self.sweep(run, tmp_path, serialize, "_write_body", half_written) == 5


def _workload_config(root, name, seed):
    """Write workload ``name``'s inputs at ``seed`` and a config for them under ``root``."""
    ratings, trust = root / "ratings.txt", root / "trust.txt"
    write_bundle(_workload(name, seed=seed), ratings, trust)
    settings = {**_workloads()[name].config, "paths.ratings": ratings, "paths.trust": trust,
                "paths.work": root / "work"}
    config = root / "config.txt"
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return config


def _cli(config, *command, env=None):
    return subprocess.run([sys.executable, "-m", "trustrec.cli", "--config", str(config), *command],
                          env=env or _env(), capture_output=True, text=True)


class TestBenchmarkInputs:
    @pytest.fixture(scope="class")
    def seed_73(self, tmp_path_factory):
        """The train-s config at seed 73 and its prepare and train runs, one BLAS thread."""
        config = _workload_config(tmp_path_factory.mktemp("train-s-73"), "train-s", 73)
        return config, [_cli(config, command) for command in ("prepare", "train")]

    def test_train_s_trains_at_seed_73(self, seed_73):
        for done in seed_73[1]:
            assert done.returncode == 0, done.stderr

    def test_train_s_at_seed_73_ends_near_the_per_rating_reference(self, seed_73, monkeypatch):
        # The guarded level step may end below the per-rating pass, never far
        # above it: one-sided bounds on the final objective (3012 against
        # 3472 here) and on test RMSE.  The RMSE slack, 0.01, is just above
        # the largest excess over the reference seen at seeds 60-79, 7 and 42
        # of both benchmark workloads (+0.0081); here the gap is -0.0025.
        config_path, runs = seed_73
        assert all(done.returncode == 0 for done in runs)
        config = cli.build_config(cli.parse_config_file(str(config_path)))
        folders = cli._stage_folders(config, "prepare", "autoencoder", "graph", "embed", "train")
        train_split, test_split, _ = data.load_prepared(folders["prepare"], config.scale)
        ctx, (init_p, init_q) = cli._load_context(folders, train_split)
        params = load_params(os.path.join(folders["train"], "model.ckpt"))
        with open(os.path.join(folders["train"], "objective.log")) as fh:
            history = [float(line) for line in fh]
        monkeypatch.setattr(model_module, "sgd_epoch", reference_sgd_epoch)
        reference, reference_history = model_module.train(ctx, config.model, init_p, init_q)
        assert len(history) == len(reference_history) == config.model.epochs
        assert history[-1] <= reference_history[-1]
        mine = evaluate(params, ctx.embeddings, test_split).rmse
        theirs = evaluate(reference, ctx.embeddings, test_split).rmse
        assert mine <= theirs + 0.01

    @pytest.mark.parametrize("name", ["train-s", "ablate-dense"])
    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path, name):
        config = _workload_config(tmp_path, name, 7)
        runs = []
        for threads in ("1", "2"):
            env = dict(_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            work = tmp_path / f"work-{threads}"
            for command in _workloads()[name].commands:
                done = _cli(config, "--work", str(work), *command, env=env)
                assert done.returncode == 0, done.stderr
            runs.append({str(p.relative_to(work)): p.read_bytes() for p in work.rglob("*") if p.is_file()})
        assert sorted(runs[0]) == sorted(runs[1])
        assert [path for path in runs[0] if runs[0][path] != runs[1][path]] == []
