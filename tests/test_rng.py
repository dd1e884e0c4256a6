"""Counter-based stream contract: purity, partitioning, distribution."""

import hashlib
import os

import numpy as np
import pytest

from conftest import fresh
from povdyn import rng
from povdyn.rng import INIT_TAG, STEP_TAG, RngStream

# SHA-256 of the float64 bytes of draws recorded from the unblocked
# generator (one vectorized pass per call). The ranges straddle the
# boundaries of 65,536- and 131,072-draw blocks; 131,072 = 2**17.
KNOWN_NORMALS = [
    # (seed, year, tag, lo, hi, dt, digest)
    (42, 1963, STEP_TAG, 0, 3 * 131072 + 17, 1.0,
     "cae20d932206f78f12fb86aedf64ebfb6b477a773ef0f38b59ad3a65c86fc47d"),
    (42, 1963, STEP_TAG, 131072 - 5, 131072 + 5, 1.0,
     "5858b89bbdb48267caec8601fe3d247a9630337ff05b0bc9ae28226e30188360"),
    (7, 1999, STEP_TAG, 12345, 12345 + 2 * 131072 + 1, 1.0,
     "d23619ef22bfaaf076ccba0f61b711adca6c167f6644b5bc9be709b434838174"),
    (42, 1963, STEP_TAG, 3, 3 + 131072 + 9, 0.5,
     "4d277d66c9896b1556fe42ba6c42933b0f4930edbabdf3946ac94641d5c3e829"),
    (42, 1950, INIT_TAG, 0, 2 * 131072 + 1, 1.0,
     "df9d65c36c6a74093a26b00d81f23e83ed654891eff8002f8e3065dcc0b480af"),
]
KNOWN_UNIFORMS = (5, 1970, STEP_TAG, 1, 1 + 131072 + 2,
                  "0859086f8ece093a4ff7514c93abaf76e77953f2dce918bdf22d062e230affa7")


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("seed,year,tag,lo,hi,dt,digest", KNOWN_NORMALS)
def test_normals_known_answers(seed, year, tag, lo, hi, dt, digest):
    w = RngStream(seed).normals(year, tag, lo, hi, dt)
    assert len(w) == hi - lo
    assert _digest(w) == digest


def test_uniforms_known_answer():
    seed, year, tag, lo, hi, digest = KNOWN_UNIFORMS
    assert _digest(RngStream(seed).uniforms(year, tag, lo, hi)) == digest


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_size_never_changes_a_value(monkeypatch, block):
    s = RngStream(11)
    want_n = s.normals(1990, STEP_TAG, 5, 2505, dt=0.5)
    want_u = s.uniforms(1990, STEP_TAG, 5, 2505)
    monkeypatch.setattr(rng, "_BLOCK", block)
    assert np.array_equal(s.normals(1990, STEP_TAG, 5, 2505, dt=0.5), want_n)
    assert np.array_equal(s.uniforms(1990, STEP_TAG, 5, 2505), want_u)


@pytest.mark.parametrize("block", [1, 7, 8192, 100_000])
def test_stream_block_never_changes_a_value(block):
    want = RngStream(11).normals(1990, STEP_TAG, 5, 70_005, dt=0.5)
    got = RngStream(11, block=block).normals(1990, STEP_TAG, 5, 70_005,
                                             dt=0.5)
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        RngStream(11, block=0)


def test_draws_are_pure_functions_of_coordinates():
    s = RngStream(42)
    a = s.normals(1963, STEP_TAG, 0, 500)
    b = RngStream(42).normals(1963, STEP_TAG, 0, 500)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("splits", [[100], [1, 999], [250, 500, 750]])
def test_partition_independence(splits):
    s = RngStream(7)
    full = s.normals(1980, STEP_TAG, 0, 1000)
    bounds = [0] + splits + [1000]
    parts = [s.normals(1980, STEP_TAG, lo, hi)
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(full, np.concatenate(parts))


def test_single_agent_slice_matches_full_vector():
    s = RngStream(99)
    full = s.normals(2001, INIT_TAG, 0, 64)
    for i in (0, 1, 31, 63):
        assert s.normals(2001, INIT_TAG, i, i + 1)[0] == full[i]


def test_coordinates_change_the_stream():
    s = RngStream(3)
    base = s.uniforms(1970, STEP_TAG, 0, 256)
    assert not np.array_equal(base, s.uniforms(1971, STEP_TAG, 0, 256))
    assert not np.array_equal(base, s.uniforms(1970, INIT_TAG, 0, 256))
    assert not np.array_equal(base, RngStream(4).uniforms(1970, STEP_TAG, 0, 256))


def test_uniforms_strictly_inside_unit_interval():
    u = RngStream(0).uniforms(1950, STEP_TAG, 0, 200_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_normal_moments():
    w = RngStream(12).normals(1955, STEP_TAG, 0, 200_000)
    assert abs(w.mean()) < 0.01
    assert abs(w.std() - 1.0) < 0.01
    # skewness and excess kurtosis of the inverse-CDF transform
    z = (w - w.mean()) / w.std()
    assert abs(np.mean(z**3)) < 0.05
    assert abs(np.mean(z**4) - 3.0) < 0.1


def test_dt_scales_variance():
    s = RngStream(8)
    w1 = s.normals(1960, STEP_TAG, 0, 1000, dt=1.0)
    w4 = s.normals(1960, STEP_TAG, 0, 1000, dt=4.0)
    assert np.allclose(w4, 2.0 * w1)


def test_negative_and_huge_seeds_accepted():
    a = RngStream(-1).normals(1950, STEP_TAG, 0, 8)
    b = RngStream((1 << 64) - 1).normals(1950, STEP_TAG, 0, 8)
    assert np.array_equal(a, b)  # -1 reduces mod 2^64


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        RngStream(1).uniforms(1950, STEP_TAG, 10, 5)
    with pytest.raises(ValueError):
        RngStream(1).normals(1950, STEP_TAG, 10, 5)
    for draw in (RngStream(1).uniforms, RngStream(1).normals):
        empty = draw(1950, STEP_TAG, 10, 10)
        assert empty.shape == (0,) and empty.dtype == np.float64


# ---------------------------------------------------------------------------
# loading ndtri: each case in a fresh interpreter, in development mode with
# warnings as errors, since a module once imported stays imported

def test_cli_import_runs_no_scipy_special_init():
    got = fresh("""
        import json, sys
        import povdyn.cli
        heavy = [m for m in ("scipy.special._support_alternative_backends",
                             "numpy.f2py", "charset_normalizer")
                 if m in sys.modules]
        stub = "scipy.special" in sys.modules
        import scipy.special, scipy.stats, povdyn.rng
        print(json.dumps({
            "heavy": heavy, "stub": stub,
            "same": scipy.special.ndtri is povdyn.rng.ndtri,
            "real": sys.modules["scipy.special"].__file__ is not None,
            "ppf": scipy.stats.norm.ppf(0.975).hex(),
            "ndtri": float(povdyn.rng.ndtri(0.975)).hex()}))
        """)
    assert got["heavy"] == [] and not got["stub"]
    assert got["same"] and got["real"]
    assert got["ppf"] == got["ndtri"]


# records every absolute import of scipy.special or a module in it, and
# fails the loader's own import of the extension when asked to
_WATCH = """
    import builtins, json, sys
    seen = []
    real_import = builtins.__import__

    def watch(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and name.startswith("scipy.special"):
            seen.append(name)
            if BLOCK and name == "scipy.special._ufuncs":
                raise ImportError("blocked")
        return real_import(name, globals, locals, fromlist, level)
"""


def test_loader_uses_scipy_special_when_it_is_imported():
    got = fresh("BLOCK = False", _WATCH, """
        import scipy.special
        package = sys.modules["scipy.special"]
        builtins.__import__ = watch
        import povdyn.rng
        builtins.__import__ = real_import
        print(json.dumps({
            "seen": seen,
            "kept": sys.modules["scipy.special"] is package,
            "same": povdyn.rng.ndtri is scipy.special.ndtri}))
        """)
    assert got["seen"] == ["scipy.special"]
    assert got["kept"] and got["same"]


def test_loader_falls_back_when_the_private_import_fails():
    # only the loader's absolute import is blocked: the package's own
    # ``from ._ufuncs import *`` is relative, so the fallback loads
    got = fresh("BLOCK = True", _WATCH, """
        builtins.__import__ = watch
        import povdyn.rng
        builtins.__import__ = real_import
        package = sys.modules.get("scipy.special")
        import scipy.special
        print(json.dumps({
            "seen": seen,
            "file": getattr(package, "__file__", None) is not None,
            "kept": sys.modules["scipy.special"] is package,
            "same": povdyn.rng.ndtri is scipy.special.ndtri,
            "init": "scipy.special._support_alternative_backends"
                    in sys.modules}))
        """)
    assert got["seen"][:2] == ["scipy.special._ufuncs", "scipy.special"]
    assert got["file"] and got["kept"] and got["same"] and got["init"]


# ---------------------------------------------------------------------------
# BLAS threads: povdyn calls no BLAS, so its import starts no OpenBLAS worker
# unless the user asked for them

_THREADS = """
    import json, os
    before = dict(os.environ)
    import povdyn.cli
    print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                      "environ_kept": dict(os.environ) == before}))
"""
_NO_TASKS = not os.path.isdir("/proc/self/task")


@pytest.mark.skipif(_NO_TASKS, reason="no /proc/self/task to count threads")
def test_cli_import_starts_no_blas_worker():
    assert fresh(_THREADS) == {"threads": 1, "environ_kept": True}


@pytest.mark.skipif(_NO_TASKS or (os.cpu_count() or 1) < 2,
                    reason="no /proc/self/task, or OpenBLAS starts no "
                           "worker on one core")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_users_blas_thread_count_wins(var):
    got = fresh(_THREADS, **{var: "2"})
    assert got["threads"] > 1 and got["environ_kept"]
