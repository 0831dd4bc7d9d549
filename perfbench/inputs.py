"""Seeded inputs for the benchmark, written with the stdlib ``csv`` module.

The program's own writers and generators are deliberately not used, so a
change to them cannot change what the benchmark feeds the program.
"""

from __future__ import annotations

import csv

import numpy as np


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for ``(seed, key...)``."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def one_factor(rng: np.random.Generator, n: int, m: int, rho: float) -> np.ndarray:
    """``n`` series over ``m`` timestamps with population pairwise correlation ``rho``."""
    common = rng.standard_normal(m)
    own = rng.standard_normal((n, m))
    return np.sqrt(rho) * common[None, :] + np.sqrt(1.0 - rho) * own


def with_near_duplicates(
    rng: np.random.Generator, values: np.ndarray, n_dup: int, loading: float = 0.97
) -> np.ndarray:
    """Overwrite ``n_dup`` series with noisy copies of other series.

    Each copy has correlation about ``loading`` with its original, so the
    redundancy prune at bound 0.9 drops exactly one series of each pair.
    """
    n, m = values.shape
    picks = rng.choice(n, size=2 * n_dup, replace=False)
    out = values.copy()
    for original, copy in zip(picks[:n_dup], picks[n_dup:]):
        out[copy] = loading * values[original] + np.sqrt(1 - loading**2) * rng.standard_normal(m)
    return out


def ragged_mask(rng: np.random.Generator, n: int, m: int, missing: float) -> np.ndarray:
    """Observation mask with staggered inception plus random holes.

    Timestamp 0 is the most recent. Series ``i`` starts at a random age, so
    its oldest timestamps are unobserved (a quarter of ``missing`` on
    average); random holes make up the rest.
    """
    life = rng.uniform(1.0 - missing / 2.0, 1.0, n)
    mask = np.arange(m)[None, :] < np.round(life * m)[:, None]
    hole_rate = 0.75 * missing / (1.0 - 0.25 * missing)
    return mask & (rng.random((n, m)) >= hole_rate)


def write_panel_csv(path, values: np.ndarray, mask: np.ndarray | None = None) -> None:
    """Header of series ids, then one row per timestamp; empty cells are missing."""
    n, m = values.shape
    columns = values.T.tolist()
    observed = mask.T.tolist() if mask is not None else None
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"s{i:04d}" for i in range(n)])
        for s in range(m):
            if observed is None:
                writer.writerow([repr(v) for v in columns[s]])
            else:
                writer.writerow([repr(v) if o else "" for v, o in zip(columns[s], observed[s])])
