import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def real_data_dir() -> Path | None:
    """Directory with user-supplied observed CSVs, if configured.

    Checked in order: POVDYN_REAL_DATA env var, then data/real/ under the
    repo root. The conditional reproduction tests skip when absent.
    """
    env = os.environ.get("POVDYN_REAL_DATA")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).parent.parent / "data" / "real")
    for c in candidates:
        if c.is_dir():
            return c
    return None


def random_poverty_panel(rng: np.random.Generator, n_max=200, t_max=30,
                         p_range=(0.05, 0.9)):
    """Random flag matrix with serially correlated poverty spells."""
    n = int(rng.integers(2, n_max + 1))
    t = int(rng.integers(2, t_max + 1))
    base = rng.uniform(*p_range)
    poor = np.empty((n, t), dtype=bool)
    poor[:, 0] = rng.random(n) < base
    stay = rng.uniform(0.6, 0.95)
    enter = rng.uniform(0.02, 0.4)
    for j in range(1, t):
        u = rng.random(n)
        poor[:, j] = np.where(poor[:, j - 1], u < stay, u < enter)
    return poor


def panel_from_matrix(mat, first_year=2000, seed=0):
    from povdyn.poverty import IncomePanel
    mat = np.asarray(mat, dtype=float)
    years = np.arange(first_year, first_year + mat.shape[1])
    return IncomePanel(years=years, incomes=mat, seed=seed, fingerprint="t")


def pp_from_flags(poor, first_year=2000):
    """PovertyPanel built through classify on a rank-encoded panel."""
    from povdyn.poverty import classify
    from povdyn.series import AnnualSeries
    poor = np.asarray(poor, dtype=bool)
    n, t = poor.shape
    # incomes: poor agents get low distinct values, non-poor high ones
    incomes = np.where(poor, 0.0, 10.0) + np.arange(n)[:, None] * 1e-3
    panel = panel_from_matrix(incomes, first_year)
    hcr = AnnualSeries(panel.years, poor.mean(axis=0))
    _, pp = classify(panel, hcr)
    assert np.array_equal(pp.poor, poor)
    return pp


def fresh(*parts: str, **blas: str):
    """Run the code ``parts`` in a new interpreter, in development mode
    with warnings as errors, that imports povdyn from this checkout, with
    the BLAS thread variables in ``blas`` and no others; the JSON it
    prints last. A module once imported stays imported, so a test of what
    an import loads runs here."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(blas, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c",
         "\n".join(textwrap.dedent(p) for p in parts)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])
