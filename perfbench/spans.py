"""Spans around calls into trustrec's modules, recorded from outside the program.

``Tracer.install()`` replaces each traced public function with a wrapper on
its own module and on every trustrec module that imported it by name (``cli``
and ``evaluation`` use ``from .x import y``).  Only functions are wrapped:
wrapping the class ``model._Tables`` would break the ``isinstance`` check in
``model.predict_entries``.  Spans (name, start, end, parent, highest RSS seen
while open, counts) stay in memory until the run writes them out; a sampler
thread reads this process's RSS so each span knows the most memory it held.
"""

import importlib
import inspect
import os
import sys
import threading
import time

SAMPLE_SECONDS = 0.01


def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _walk_pairs(walks, window):
    """(center, context) pairs train_embeddings builds from the walks, per epoch."""
    total = 0
    for walk in walks:
        n = len(walk)
        reach = min(window, n - 1)
        total += 2 * (reach * n - reach * (reach + 1) // 2)
    return total


def _size(path):
    return os.path.getsize(path)


# (module, function, counts(arguments, result) -> {count name: value})
TRACED = (
    ("cli", "cmd_prepare", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_evaluate", None),
    ("data", "load_ratings", None),
    ("data", "load_trust", None),
    ("data", "save_ratings", None),
    ("data", "save_trust", None),
    ("data", "split", None),
    ("graph", "symmetrized_adjacency", None),
    ("graph", "louvain", lambda a, r: {"communities": r.num_communities}),
    ("graph", "community_leaders", None),
    ("graph", "propagate_trust", lambda a, r: {"pairs": r.num_pairs}),
    ("embed", "node_embeddings", None),
    ("embed", "generate_walks", lambda a, r: {"steps": sum(len(w) - 1 for w in r)}),
    (
        "embed",
        "train_embeddings",
        lambda a, r: {"pairs": a["config"].epochs * _walk_pairs(a["walks"], a["config"].window)},
    ),
    ("autoencoder", "rating_arrays", lambda a, r: {"bytes": r[0].nbytes + r[1].nbytes}),
    ("autoencoder", "train_autoencoder", None),
    ("autoencoder", "loss_and_gradients", lambda a, r: {"rows": len(a["targets"])}),
    ("autoencoder", "forward", None),
    ("autoencoder", "masked_mse", None),
    ("autoencoder", "encode", None),
    ("model", "train", None),
    ("model", "sgd_epoch", lambda a, r: {"ratings": len(a["ctx"].train)}),
    ("model", "objective", None),
    ("serialize", "save_checkpoint", lambda a, r: {"bytes": _size(a["path"])}),
    ("serialize", "load_checkpoint", lambda a, r: {"bytes": _size(a["path"])}),
    ("evaluation", "autoencoder_inits", None),
    ("evaluation", "run_ablations", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "constant_baseline", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rss_high", "counts")

    def __init__(self, name, parent, rss):
        self.name = name
        self.parent = parent
        self.rss_high = rss
        self.counts = {}
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rss_high": self.rss_high,
            "counts": self.counts,
        }


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.open = []  # indices into spans, innermost last
        self._stop = threading.Event()
        self._sampler = None
        self._restore = []

    def _enter(self, name):
        parent = self.open[-1] if self.open else None
        self.spans.append(Span(name, parent, _rss_bytes()))
        self.open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, span):
        span.end = time.perf_counter()
        self._note_rss(_rss_bytes())
        self.open.pop()

    def _note_rss(self, rss):
        for index in list(self.open):
            span = self.spans[index]
            if rss > span.rss_high:
                span.rss_high = rss

    def _sample(self):
        while not self._stop.wait(SAMPLE_SECONDS):
            self._note_rss(_rss_bytes())

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a trustrec module holds it."""
        for module_name, fn_name, counts in TRACED:
            home = importlib.import_module(f"trustrec.{module_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counts)
            for name, module in list(sys.modules.items()):
                if name == "trustrec" or name.startswith("trustrec."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        self._stop.clear()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def uninstall(self):
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
            self._sampler = None
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []


def layer_metrics(spans, work_dir_bytes):
    """Per-layer metrics from one round's spans (see README for each definition)."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    children = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)

    def self_time(name):
        return sum(
            (s.end - s.start) - children.get(i, 0.0) for i, s in enumerate(spans) if s.name == name
        )

    def rss_mb(layer):
        highs = [s.rss_high for s in spans if s.name.startswith(layer + ".")]
        return max(highs) / 2**20 if highs else 0.0

    def per_second(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def parent_named(span, name):
        return span.parent is not None and spans[span.parent].name == name

    walks_s = total("embed.generate_walks")
    skipgram_s = total("embed.train_embeddings")
    ae_train_s = total("autoencoder.train_autoencoder")
    sgd_s = total("model.sgd_epoch")
    epochs = len(named("model.sgd_epoch"))
    ablations = named("evaluation.run_ablations")
    # a workload without --ablate scores a ladder of one rung: the lone full model
    ablations_s = total("evaluation.run_ablations") if ablations else total("evaluation.evaluate")
    epoch_loss_s = sum(
        s.end - s.start
        for s in spans
        if s.name in ("autoencoder.forward", "autoencoder.masked_mse")
        and parent_named(s, "autoencoder.train_autoencoder")
    )
    return {
        "embed.walks_s": (walks_s, "s"),
        "embed.walk_steps": (count("embed.generate_walks", "steps"), "count"),
        "embed.walk_steps_per_s": (per_second(count("embed.generate_walks", "steps"), walks_s), "1/s"),
        "embed.skipgram_s": (skipgram_s, "s"),
        "embed.skipgram_pairs": (count("embed.train_embeddings", "pairs"), "count"),
        "embed.skipgram_pairs_per_s": (
            per_second(count("embed.train_embeddings", "pairs"), skipgram_s),
            "1/s",
        ),
        "embed.rss_high_mb": (rss_mb("embed"), "MB"),
        "autoencoder.train_s": (ae_train_s, "s"),
        "autoencoder.grad_s": (total("autoencoder.loss_and_gradients"), "s"),
        "autoencoder.epoch_loss_s": (epoch_loss_s, "s"),
        "autoencoder.encode_s": (total("autoencoder.encode"), "s"),
        "autoencoder.batches": (len(named("autoencoder.loss_and_gradients")), "count"),
        "autoencoder.rows_per_s": (
            per_second(count("autoencoder.loss_and_gradients", "rows"), ae_train_s),
            "1/s",
        ),
        "autoencoder.dense_mb": (
            max((s.counts["bytes"] for s in named("autoencoder.rating_arrays")), default=0) / 2**20,
            "MB",
        ),
        "autoencoder.rss_high_mb": (rss_mb("autoencoder"), "MB"),
        "model.sgd_epoch_s": (sgd_s / epochs if epochs else 0.0, "s"),
        "model.epochs": (epochs, "count"),
        "model.rating_updates_per_s": (per_second(count("model.sgd_epoch", "ratings"), sgd_s), "1/s"),
        "model.objective_s": (total("model.objective"), "s"),
        "model.train_self_s": (self_time("model.train"), "s"),
        "model.rss_high_mb": (rss_mb("model"), "MB"),
        "graph.louvain_s": (total("graph.louvain"), "s"),
        "graph.leaders_s": (total("graph.community_leaders"), "s"),
        "graph.propagate_s": (total("graph.propagate_trust"), "s"),
        "graph.propagated_pairs": (count("graph.propagate_trust", "pairs"), "count"),
        "graph.communities": (count("graph.louvain", "communities"), "count"),
        "cli.prepare_s": (total("cli.cmd_prepare"), "s"),
        "cli.train_s": (total("cli.cmd_train"), "s"),
        "cli.evaluate_s": (total("cli.cmd_evaluate"), "s"),
        "cli.self_s": (sum(self_time(f"cli.cmd_{c}") for c in ("prepare", "train", "evaluate")), "s"),
        "cli.work_dir_mb": (work_dir_bytes / 2**20, "MB"),
        "serialize.save_s": (total("serialize.save_checkpoint"), "s"),
        "serialize.load_s": (total("serialize.load_checkpoint"), "s"),
        "serialize.bytes_written": (count("serialize.save_checkpoint", "bytes"), "bytes"),
        "serialize.bytes_read": (count("serialize.load_checkpoint", "bytes"), "bytes"),
        "data.load_s": (total("data.load_ratings") + total("data.load_trust"), "s"),
        "data.split_s": (total("data.split"), "s"),
        "evaluation.evaluate_s": (total("evaluation.evaluate"), "s"),
        "evaluation.ablations_s": (ablations_s, "s"),
    }
