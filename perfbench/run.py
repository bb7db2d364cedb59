"""Run one benchmark workload through the trustrec CLI and print its metrics.

    python3 perfbench/run.py --workload train-s --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``.
A run sets the inputs up from ``--seed`` (five times, reporting the median),
then repeats cold rounds of the workload's CLI commands, each round in a fresh
work directory, until ``--seconds`` have passed (at least one round).  Every
command's outputs are checked apart from the program (see checks.py).

``--trace 0`` runs each command as its own ``python -m trustrec.cli`` process
and reports the end-to-end metrics.  ``--trace 1`` runs the commands inside
this process, once untraced and once with spans around calls into each
module (see spans.py), and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 5
# A CLI process still running this long after the run began is killed, so a
# hung command ends the run inside 180 s.
DEADLINE_S = 170.0
# One BLAS thread: on a shared two-core machine a second thread per process
# spins against other load and makes the dense autoencoder steps erratic.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in every child

sys.path.insert(0, str(SRC))


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def set_up(workload, seed, run_dir):
    """Generate the bundle and write inputs plus config; returns check inputs."""
    from trustrec.data import subsample_top_trust_users
    from trustrec.synth import social_bundle, write_bundle

    bundle = social_bundle(seed=seed, **workload.bundle)
    ratings, trust = bundle.ratings, bundle.trust
    if workload.top_users:
        ratings, trust, _ = subsample_top_trust_users(ratings, trust, workload.top_users)
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {"ratings": run_dir / "ratings.txt", "trust": run_dir / "trust.txt"}
    write_bundle(SimpleNamespace(ratings=ratings, trust=trust), paths["ratings"], paths["trust"])
    config = workload.config
    lines = [f"paths.ratings = {paths['ratings']}", f"paths.trust = {paths['trust']}"]
    lines += [f"{key} = {value}" for key, value in config.items()]
    (run_dir / "run.conf").write_text("\n".join(lines) + "\n")
    return {
        **paths,
        "conf": run_dir / "run.conf",
        "train_fraction": config["split.train_fraction"],
        "decay": config["graph.decay"],
        "max_depth": config["graph.max_depth"],
        "scale": (config["data.scale_min"], config["data.scale_max"]),
        "ablate": workload.ablate,
    }


def run_process(argv, log_dir, tag, deadline):
    """One CLI command as a child process: (exit code, seconds, peak RSS MB, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "trustrec.cli", *argv], stdout=out, stderr=err, env=env
        )
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sys.stderr.write(err_path.read_text())
    return proc.returncode, seconds, usage.ru_maxrss / 1024, out_path.read_text()


def run_in_process(argv):
    """One CLI command through ``trustrec.cli.main`` here: (exit code, seconds, stdout)."""
    from trustrec import cli

    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(printed):
            code = cli.main(argv)
    except Exception:  # a crash inside the program counts its command as failed
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start, printed.getvalue()


def parse_printed(text):
    rows = []
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) == 4:
            rows.append((fields[0], float(fields[1])))
    return rows


class Round:
    """One cold pass over the workload's commands in a fresh work directory."""

    def __init__(self, workload, inputs, work, reference):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.reference = reference  # printed report of the run's first round
        self.failed = 0
        self.problems = []  # failed output checks of commands that exited 0
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        self.printed = []

    def check(self, command, stdout):
        """Problems found in the outputs ``command`` left in the work directory."""
        import checks

        try:
            if command == "prepare":
                return checks.check_prepare(self.work, self.inputs)
            if command == "train":
                return checks.check_train(self.work, self.inputs)
            self.printed = parse_printed(stdout)
            problems = checks.check_evaluate(self.work, self.inputs, self.printed)
            if self.reference is not None and self.printed != self.reference:
                problems.append("report differs from the first round on the same inputs")
            return problems
        except (checks.Problem, OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    def run(self, execute):
        """``execute(argv, tag)`` -> (exit code, seconds, peak RSS MB or None, stdout)."""
        for tail in self.workload.commands:
            argv = ["--config", str(self.inputs["conf"]), "--work", str(self.work), *tail]
            code, seconds, rss, stdout = execute(argv, tail[0])
            print(f"{tail[0]}: {seconds:.3f} s", file=sys.stderr)
            self.seconds += seconds
            self.peak_rss_mb = max(self.peak_rss_mb, rss or 0.0)
            if code != 0:
                self.failed += 1
                print(f"{tail[0]}: exit code {code}", file=sys.stderr)
                continue
            problems = self.check(tail[0], stdout)
            if self.printed and self.reference is None:
                print(" ".join(f"{tag} {value:.4f}" for tag, value in self.printed), file=sys.stderr)
            if problems:
                self.failed += 1
                self.problems += [f"{tail[0]}: {p}" for p in problems]
        return self

    @property
    def full_rmse(self):
        return dict(self.printed).get("full", 0.0)


def untraced_rounds(workload, inputs, run_dir, seconds, started, deadline):
    rounds = []
    while not rounds or time.monotonic() - started < seconds:
        work = run_dir / f"work-{len(rounds)}"
        reference = rounds[0].printed if rounds else None

        def execute(argv, tag):
            return run_process(argv, run_dir, tag, deadline)

        rounds.append(Round(workload, inputs, work, reference).run(execute))
        shutil.rmtree(work, ignore_errors=True)
    return rounds


def traced_rounds(workload, inputs, run_dir, seconds, started, spans_path):
    import spans

    def execute(argv, tag):
        code, secs, stdout = run_in_process(argv)
        return code, secs, None, stdout

    rounds, per_round, all_spans = [], [], []
    while not per_round or time.monotonic() - started < seconds:
        reference = rounds[0].printed if rounds else None
        plain_work = run_dir / f"work-{len(rounds)}"
        plain = Round(workload, inputs, plain_work, reference).run(execute)
        shutil.rmtree(plain_work, ignore_errors=True)
        traced_work = run_dir / f"work-{len(rounds) + 1}"
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Round(workload, inputs, traced_work, plain.printed).run(execute)
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer.spans, _dir_bytes(traced_work))
        layer["trace.wall_s"] = (traced.seconds, "s")
        layer["trace.untraced_wall_s"] = (plain.seconds, "s")
        layer["trace.overhead_pct"] = (100.0 * (traced.seconds / plain.seconds - 1.0), "%")
        shutil.rmtree(traced_work, ignore_errors=True)
        rounds += [plain, traced]
        per_round.append(layer)
        all_spans.append([s.as_dict() for s in tracer.spans])
    with open(spans_path, "w") as fh:
        json.dump(all_spans, fh)
    metrics = {
        name: (statistics.median([r[name][0] for r in per_round]), unit)
        for name, (_, unit) in per_round[0].items()
    }
    return rounds, metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (SRC / "trustrec" / "cli.py").is_file():
        print(f"error: no trustrec sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    run_dir = WORK_ROOT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            inputs = set_up(workload, args.seed, run_dir)
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{workload.name}-seed{args.seed}.json"
            rounds, metrics = traced_rounds(workload, inputs, run_dir, args.seconds, started, spans_path)
        else:
            rounds = untraced_rounds(workload, inputs, run_dir, args.seconds, started, started + DEADLINE_S)
            metrics = {
                "wall_s": (statistics.median([r.seconds for r in rounds]), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (statistics.median([r.peak_rss_mb for r in rounds]), "MB"),
                "test_rmse": (statistics.median([r.full_rmse for r in rounds]), "rating"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(workload.commands),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
