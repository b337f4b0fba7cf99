"""Spans and counters recorded around the program's layers.

The traced run wraps public functions and methods of the program from here,
without editing it. Each wrapper replaces the name where the calling module
looks it up: ``training`` imports ``TripleSampler`` and ``recall_ndcg`` by
name, ``attacks`` imports ``hit_count`` and ``RankCache`` by name, while
``cli`` reaches ``attacks.run_attack`` and every module reaches
``autodiff.grad`` through the module attribute. Spans are kept in memory
with their parent; a span's self time is its duration minus its children's.
Tape nodes are counted by reading the autodiff id counter without
advancing it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from mmadvrec import attacks, data, metrics, mismatch, models, training
from mmadvrec import autodiff as ad


def tape_nodes():
    """Ids handed out so far by the tape's ``itertools.count`` (read via its
    repr, which does not consume a value)."""
    return int(repr(ad._ids)[len("count("):-1])


class NullTracer:
    """Untraced runs: stage labels and spans cost nothing."""

    enabled = False

    @contextmanager
    def stage(self, name):
        yield

    @contextmanager
    def span(self, name, **extra):
        yield

    def install(self):
        pass

    def uninstall(self):
        pass


class Span:
    __slots__ = ("name", "stage", "parent", "start", "child", "self_s", "nodes", "extra")

    def __init__(self, name, stage, parent, extra):
        self.name = name
        self.stage = stage
        self.parent = parent
        self.extra = extra
        self.child = 0.0
        self.self_s = 0.0
        self.nodes = 0
        self.start = 0.0


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._stage = None
        self._patches = []

    @contextmanager
    def stage(self, name):
        prev, self._stage = self._stage, name
        try:
            yield
        finally:
            self._stage = prev

    @contextmanager
    def span(self, name, **extra):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self._stage, parent, extra)
        self._stack.append(sp)
        n0 = tape_nodes()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            dur = time.perf_counter() - sp.start
            sp.nodes = tape_nodes() - n0
            self._stack.pop()
            sp.self_s = dur - sp.child
            if parent is not None:
                parent.child += dur
            self.spans.append(sp)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                out = fn(*args, **kwargs)
                if extra is not None:
                    sp.extra.update(extra(args, kwargs, out))
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the program's layer entry points where their callers look
        them up."""
        w = self._wrap

        grad = ad.grad

        def traced_grad(loss, wrt, create_graph=False):
            name = "autodiff.backward2" if create_graph else "autodiff.backward"
            with self.span(name):
                return grad(loss, wrt, create_graph=create_graph)

        self._patch(ad, "grad", traced_grad)
        self._patch(data, "split_leave_one_out", w(data.split_leave_one_out, "data.split"))
        self._patch(models, "DatasetEncoding", w(models.DatasetEncoding, "models.encoding"))
        self._patch(models.Scorer, "perturbed_rows",
                    w(models.Scorer.perturbed_rows, "models.perturbed_rows",
                      lambda a, k, out: {"rows": int(out[0].size)}))

        cache_cls = metrics.RankCache
        traced_cache = w(cache_cls, "metrics.rank_cache")
        for mod in (metrics, attacks, mismatch):
            self._patch(mod, "RankCache", traced_cache)
        self._patch(cache_cls, "thresholds_excluding",
                    w(cache_cls.thresholds_excluding, "metrics.thresholds"))
        traced_hits = w(metrics.hit_count, "metrics.hit_count")
        self._patch(metrics, "hit_count", traced_hits)
        self._patch(attacks, "hit_count", traced_hits)
        self._patch(attacks, "run_attack", w(attacks.run_attack, "attacks.attack"))
        self._patch(attacks, "promoted_user_set",
                    w(attacks.promoted_user_set, "attacks.promoted_user_set"))

        sampler_cls = training.TripleSampler
        tracer = self

        class TracedSampler(sampler_cls):
            def sample(self, batch_size):
                with tracer.span("data.sample"):
                    return super().sample(batch_size)

        self._patch(training, "TripleSampler", TracedSampler)
        self._patch(training, "recall_ndcg", w(training.recall_ndcg, "training.eval"))
        self._patch(training, "min_phase", w(training.min_phase, "training.min_phase"))
        self._patch(training, "max_phase", w(training.max_phase, "training.max_phase"))
        for opt in (training.Adam, training.SGD):
            self._patch(opt, "step", w(opt.step, "training.optimizer_step"))

        self._patch(mismatch, "per_user_gradients",
                    w(mismatch.per_user_gradients, "mismatch.per_user_gradients"))
        self._patch(mismatch, "user_contributions",
                    w(mismatch.user_contributions, "mismatch.contributions"))
        self._patch(mismatch, "top_user_sets", w(mismatch.top_user_sets, "mismatch.top_sets"))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries -----------------------------------------------------------

    def select(self, name, stages):
        return [s for s in self.spans if s.name == name and s.stage in stages]

    def median_self_ms(self, name, stages):
        spans = self.select(name, stages)
        return 1e3 * statistics.median(s.self_s for s in spans) if spans else 0.0

    def per_span(self, name, stages, value):
        spans = self.select(name, stages)
        return statistics.median(value(s) for s in spans) if spans else 0.0

    def count_within(self, name, parent_name, stage):
        """Mean number of ``name`` spans under each ``parent_name`` span."""
        parents = self.select(parent_name, (stage,))
        if not parents:
            return 0.0
        ids = {id(p) for p in parents}
        n = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and id(p) not in ids:
                p = p.parent
            n += p is not None
        return n / len(parents)


# (metric, span, stages the median is taken over). Times are median self
# time per call in ms. The max phase and create-graph backward also run in
# the oracle's max-phase probe, the only place they run on workloads
# without adversarial training.
TIME_METRICS = (
    ("data.load_ms", "data.load", ("setup",)),
    ("data.split_ms", "data.split", ("setup",)),
    ("metrics.rank_cache_ms", "metrics.rank_cache", ("setup",)),
    ("models.encoding_ms", "models.encoding", ("setup",)),
    ("data.sample_ms", "data.sample", ("train",)),
    ("training.min_phase_ms", "training.min_phase", ("train",)),
    ("training.optimizer_step_ms", "training.optimizer_step", ("train",)),
    ("training.eval_ms", "training.eval", ("train",)),
    ("training.max_phase_ms", "training.max_phase", ("train", "probe")),
    ("autodiff.backward2_ms", "autodiff.backward2", ("train", "attack", "probe")),
    ("autodiff.backward_ms", "autodiff.backward", ("attack",)),
    ("metrics.hit_count_ms", "metrics.hit_count", ("attack",)),
    ("models.perturbed_rows_ms", "models.perturbed_rows", ("attack",)),
    ("attacks.attack_ms", "attacks.attack", ("attack",)),
    ("attacks.promoted_user_set_ms", "attacks.promoted_user_set", ("attack",)),
    ("metrics.thresholds_ms", "metrics.thresholds", ("attack", "diagnose")),
    ("mismatch.per_user_gradients_ms", "mismatch.per_user_gradients", ("diagnose",)),
    ("mismatch.contributions_ms", "mismatch.contributions", ("diagnose",)),
    ("mismatch.top_sets_ms", "mismatch.top_sets", ("diagnose",)),
)

COUNT_METRICS = (
    "autodiff.nodes_per_batch",
    "autodiff.nodes_per_target",
    "metrics.hit_calls_per_target",
    "models.affected_rows",
    "autodiff.backward_calls_per_target",
)


def encoding_mib(enc, feats):
    """Bytes of the arrays an encoding computed (feature arrays it only
    references are not counted), in MiB."""
    total = 0
    seen = set()
    for value in vars(enc).values():
        if not isinstance(value, np.ndarray) or id(value) in seen:
            continue
        seen.add(id(value))
        if any(np.shares_memory(value, f) for f in feats):
            continue
        total += value.nbytes
    return total / 2 ** 20


def layer_metrics(tracer, enc_mib):
    """Per-layer metrics of a traced run, by name."""
    out = {name: tracer.median_self_ms(span, stages) for name, span, stages in TIME_METRICS}
    out["models.encoding_mib"] = enc_mib
    min_nodes = tracer.per_span("training.min_phase", ("train",), lambda s: s.nodes)
    max_nodes = tracer.per_span("training.max_phase", ("train",), lambda s: s.nodes)
    out["autodiff.nodes_per_batch"] = float(min_nodes + max_nodes)
    out["autodiff.nodes_per_target"] = float(
        tracer.per_span("cli.run_campaign", ("attack",), lambda s: s.nodes))
    out["metrics.hit_calls_per_target"] = tracer.count_within(
        "metrics.hit_count", "cli.run_campaign", "attack")
    out["models.affected_rows"] = float(
        tracer.per_span("models.perturbed_rows", ("attack",), lambda s: s.extra["rows"]))
    out["autodiff.backward_calls_per_target"] = (
        tracer.count_within("autodiff.backward", "mismatch.survey", "diagnose")
        + tracer.count_within("autodiff.backward2", "mismatch.survey", "diagnose"))
    return out


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mib"):
        return "MiB"
    return "count"
