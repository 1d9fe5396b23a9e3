"""Timing spans recorded from the benchmark's own wrappers.

A ``Tracer`` keeps spans in memory (name, start, end, parent) and writes
them as JSON lines when the run ends. ``patched`` installs wrappers around
the package's public functions where their callers look them up (the
``subsage.cli`` namespace, and ``subsage.bootstrap`` for what
``paired_bootstrap`` calls), and restores the originals on exit. Nothing in
``src/`` is edited.

Span names are ``<module>.<function>`` after the ``subsage.<module>`` that
defines the function, plus ``cli.<command>`` for each command and
``setup`` for input generation. A module's self time is the time inside
its spans that no child span covers.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import subsage.bootstrap
import subsage.cli
import subsage.dataset
import subsage.shap_erfc
import subsage.synthetic
import subsage.trainer
import subsage.tree_model


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of control."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(span, result, args, kwargs)`` may
        attach attributes once the span has closed."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Spans come from one thread of control, so children nest inside their
    parent and never overlap each other.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_by_module(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for sid, t in self_times(spans).items():
        mod = module_of(spans[sid].name)
        totals[mod] = totals.get(mod, 0.0) + t
    return totals


# ---------------------------------------------------------------------------
# Wrappers around the package's public functions
# ---------------------------------------------------------------------------


def _rows(rec, result, args, kwargs):
    rec.attrs["rows"] = result.n_rows


def _bytes_written(rec, result, args, kwargs):
    rec.attrs["bytes"] = os.path.getsize(args[1])


class _TracedEngine:
    """Stand-in for ``SubSageEngine`` as ``paired_bootstrap`` sees it:
    construction and the engine's public methods each become a span."""

    def __init__(self, tracer: Tracer, engine_cls):
        self._tracer = tracer
        self._cls = engine_cls

    def __call__(self, ensemble, data, k, loss):
        with self._tracer.span("estimator.SubSageEngine", k=k):
            engine = self._cls(ensemble, data, k, loss)
        engine.estimate = self._tracer.wrap(
            "estimator.SubSageEngine.estimate", engine.estimate
        )
        psi = engine.psi_for_weights

        def psi_for_weights(weights=None):
            with self._tracer.span("estimator.SubSageEngine.psi_for_weights", k=k):
                return psi(weights)

        engine.psi_for_weights = psi_for_weights
        return engine


class _TracedResampleIndex:
    """Stand-in for ``ResampleIndex`` with a traced ``draw``."""

    def __init__(self, tracer: Tracer, cls):
        self.draw = tracer.wrap("dataset.ResampleIndex.draw", cls.draw)


def _targets(tracer: Tracer):
    """(namespace, attribute, replacement) for every traced entry point."""
    cli = subsage.cli
    bs = subsage.bootstrap
    w = tracer.wrap
    out = []
    for ns in (cli, subsage.dataset):
        out.append((ns, "load_csv", w("dataset.load_csv", ns.load_csv, _rows)))
        out.append((ns, "write_csv", w("dataset.write_csv", ns.write_csv, _bytes_written)))
    out.append((subsage.dataset, "split", w("dataset.split", subsage.dataset.split)))
    for ns in (cli, subsage.synthetic):
        out.append((ns, "generate_synthetic",
                    w("synthetic.generate_synthetic", ns.generate_synthetic)))
    out.append((cli, "train", w("trainer.train", cli.train)))
    out.append((subsage.trainer, "eval_loss",
                w("trainer.eval_loss", subsage.trainer.eval_loss)))
    for name in ("load_model", "write_model", "import_xgb_dump"):
        out.append((cli, name, w(f"tree_model.{name}", getattr(cli, name))))
    for ns in (cli, bs):
        out.append((ns, "annotate_probabilities",
                    w("tree_model.annotate_probabilities", ns.annotate_probabilities)))
    for name in ("shap_exact", "erfc", "rank_features"):
        out.append((cli, name, w(f"shap_erfc.{name}", getattr(cli, name))))
    out.append((subsage.shap_erfc, "tree_cond_exp_batch",
                w("cond_expect.tree_cond_exp_batch",
                  subsage.shap_erfc.tree_cond_exp_batch)))
    for name in ("paired_bootstrap", "report_dict"):
        out.append((bs, name, w(f"bootstrap.{name}", getattr(bs, name))))
    for name in ("percentile_interval", "bca_interval"):
        out.append((bs, name, w(f"bootstrap.{name}", getattr(bs, name))))
    out.append((bs, "SubSageEngine", _TracedEngine(tracer, bs.SubSageEngine)))
    out.append((bs, "ResampleIndex", _TracedResampleIndex(tracer, bs.ResampleIndex)))
    return out


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the package's public functions through ``tracer`` while
    inside the block."""
    targets = _targets(tracer)
    saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in targets]
    try:
        for ns, attr, repl in targets:
            setattr(ns, attr, repl)
        yield tracer
    finally:
        for ns, attr, orig in reversed(saved):
            setattr(ns, attr, orig)
