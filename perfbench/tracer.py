"""Run one ``turnover-spectra`` command with spans around the package's layers.

    python3 perfbench/tracer.py SPANS_JSON ARG...

Each public function that the CLI or the sweep reaches is replaced, where it
is used, by a wrapper that records a span: name, parent span, start, end,
error and a few counts taken from the arguments and the return value.
``numpy.linalg.eigh`` and ``eigvalsh`` are counted, not spanned; each call is
charged to the innermost open span. Spans stay in memory and are written to
SPANS_JSON when the command ends. The exit code is the command's own.
Names that a later version of the package no longer has are skipped and
listed under ``unpatched``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

_ZERO = time.perf_counter()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.eigensolves = 0

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter() - _ZERO,
            "end": None,
            "error": None,
            "eigensolves": 0,
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - _ZERO
        self.stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            span.update(attrs)
            if after:
                span.update(after(result, *args, **kwargs))
            return result

        return traced

    def count_eigensolves(self, fn):
        def counted(*args, **kwargs):
            self.eigensolves += 1
            if self.stack:
                self.stack[-1]["eigensolves"] += 1
            return fn(*args, **kwargs)

        return counted


def _entries(matrix) -> np.ndarray:
    return np.asarray(getattr(matrix, "entries", matrix), dtype=float)


def _panel_cells(panel, *args, **kwargs) -> dict:
    return {"cells": int(panel.n_series) * int(panel.n_periods)}


def _moments_size(panel, mode="complete-cases", *args, **kwargs) -> dict:
    if mode == "complete-cases":
        m_used = int(panel.observed_mask.all(axis=0).sum())
    else:
        m_used = int(panel.n_periods)
    n = int(panel.n_series)
    return {"n": n, "m_used": m_used, "flops": 2.0 * n * n * m_used}


def _repair_shift(result, matrix, *args, **kwargs) -> dict:
    return {"shift_fro": float(np.linalg.norm(_entries(result) - _entries(matrix)))}


def _pruned(result, corr, *args, **kwargs) -> dict:
    kept, _ = result
    return {"pruned": int(corr.n) - len(kept)}


def _sweep_failures(result, *args, **kwargs) -> dict:
    return {"points_failed": len(result.errors)}


def _paths(config, *args, **kwargs) -> dict:
    return {"paths": int(config.n_paths)}


# (module, attribute, span name, before, after); a function imported by name
# into several modules is patched in each module that calls it.
PATCHES = [
    ("turnover_spectra.cli", "load_panel", "panel.load_panel", None, _panel_cells),
    ("turnover_spectra.cli", "sample_moments", "panel.sample_moments", _moments_size, None),
    ("turnover_spectra.simulate", "sample_moments", "panel.sample_moments", _moments_size, None),
    ("turnover_spectra.cli", "prune_redundant", "conditioning.prune_redundant", None, _pruned),
    ("turnover_spectra.cli", "classify_definiteness", "conditioning.classify_definiteness", None, None),
    ("turnover_spectra.cli", "rj_repair", "conditioning.rj_repair", None, _repair_shift),
    ("turnover_spectra.simulate", "rj_repair", "conditioning.rj_repair", None, _repair_shift),
    ("turnover_spectra.cli", "eigendecompose", "conditioning.eigendecompose", None, None),
    ("turnover_spectra.simulate", "eigendecompose", "conditioning.eigendecompose", None, None),
    ("turnover_spectra.cli", "fix_sign_basis", "turnover.fix_sign_basis", None, None),
    ("turnover_spectra.simulate", "fix_sign_basis", "turnover.fix_sign_basis", None, None),
    ("turnover_spectra.cli", "turnover_report", "turnover.turnover_report", None, None),
    ("turnover_spectra.cli", "sweep_rho_star", "simulate.sweep_rho_star", None, _sweep_failures),
    ("turnover_spectra.simulate", "gen_one_factor_panel", "simulate.gen_one_factor_panel", None, None),
    ("turnover_spectra.cli", "simulate_crossing_paths", "simulate.simulate_crossing_paths", _paths, None),
]


def install(tracer: Tracer) -> list[str]:
    """Patch every name in PATCHES plus the numpy eigensolvers; return the names missing."""
    missing = []
    for module_name, attr, span_name, before, after in PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span_name, fn, before, after))
    for attr in ("eigh", "eigvalsh"):
        setattr(np.linalg, attr, tracer.count_eigensolves(getattr(np.linalg, attr)))
    return missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["turnover-spectra", *argv]
    tracer = Tracer()
    missing = install(tracer)
    from turnover_spectra import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": tracer.spans, "eigensolves": tracer.eigensolves, "unpatched": missing},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
