"""Span tracing of ``vlfjscc`` public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``vlfjscc`` module namespace that binds it, so calls made inside the
package (``simulation`` calling ``source_encode_batch``) are seen as well
as the benchmark's own.  The package source is never modified, and
``uninstall`` puts the originals back.

A span is (name, start, end, parent span index, run id).  Spans stay in
memory and are written once, when the run ends.  Self times are span
durations minus the time covered by their direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("probability", "numerics", "coding_scheme", "simulation",
           "decoding", "cli")


def _pairwise_cells(args, kwargs, result):
    return {"probability.pairwise_distortion_cells": int(np.asarray(result).size)}


def _encoded(args, kwargs, result):
    # Coverage recomputed from the returned indices: a word is covered iff
    # the reproduction it was mapped to lies within D of it.
    cb, v = args[0], np.asarray(args[1])
    reps = cb.reproductions[np.asarray(result) - 1]
    dist = cb.d.matrix[v.astype(np.int64), reps].mean(axis=1)
    return {"coding_scheme.source_words_encoded": int(v.shape[0]),
            "coding_scheme.covered_words": int((dist <= cb.D).sum())}


def _control_blocks(args, kwargs, result):
    return {"coding_scheme.control_blocks": int(np.asarray(result).size)}


def _pmf_symbols(args, kwargs, result):
    return {"simulation.sample_pmf_batch_symbols": int(np.asarray(result).size)}


def _channel_uses(args, kwargs, result):
    return {"simulation.channel_uses": int(np.asarray(result).size)}


def _sessions(args, kwargs, result):
    counts = np.asarray(result.block_counts)
    return {"simulation.sessions": int(counts.sum()),
            "simulation.blocks": int((np.arange(len(counts)) * counts).sum())}


def _rd_calls(args, kwargs, result):
    return {"numerics.rate_distortion_calls": 1}


def _update_calls(args, kwargs, result):
    return {"decoding.posterior_update_calls": 1}


def _tail_calls(args, kwargs, result):
    return {"decoding.min_tail_mass_calls": 1}


def _certified(args, kwargs, result):
    return {"decoding.certified_outputs": int(result.outputs_checked)}


# (module, function, counter) for every traced entry point.  The parents
# posterior_trajectory and stopping_threshold_time are traced so that the
# self times of their children exclude the loops around them.
TRACED = (
    ("probability", "channel_params", None),
    ("probability", "pairwise_distortion", _pairwise_cells),
    ("numerics", "capacity", None),
    ("numerics", "rate_distortion", _rd_calls),
    ("numerics", "marton_exponent", None),
    ("numerics", "converse_delay_bound", None),
    ("coding_scheme", "source_encode_batch", _encoded),
    ("coding_scheme", "control_decode_batch", _control_blocks),
    ("simulation", "build_codes", None),
    ("simulation", "sample_pmf_batch", _pmf_symbols),
    ("simulation", "sample_channel_batch", _channel_uses),
    ("simulation", "monte_carlo", _sessions),
    ("simulation", "control_phase_exponent", None),
    ("decoding", "posterior_update", _update_calls),
    ("decoding", "posterior_trajectory", None),
    ("decoding", "min_tail_mass", _tail_calls),
    ("decoding", "stopping_threshold_time", None),
    ("decoding", "certify_map_optimality", _certified),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.run_id = "setup"
        self._patched: list = []

    def span(self, name: str, fn, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run_id)
            if counter is not None:
                bucket = tracer.counts[tracer.run_id]
                for key, value in counter(args, kwargs, result).items():
                    bucket[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module("vlfjscc")]
        mods += [importlib.import_module(f"vlfjscc.{m}") for m in MODULES]
        for home, fname, counter in TRACED:
            orig = getattr(importlib.import_module(f"vlfjscc.{home}"), fname)
            wrapper = self.span(f"{home}.{fname}", orig, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self, run_id: str):
        """One benchmark-level span that owns a round, the set-up or the
        once-per-run operations."""
        self.run_id = run_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = ("bench." + run_id.split("-")[0], start, end,
                               -1, run_id)

    def self_times(self) -> dict:
        """{run id: {span name: self seconds}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            out[run][name] += (end - start) - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
