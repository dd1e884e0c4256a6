"""Counter-based random streams for partition-independent simulation.

Each normal draw is a pure function of the coordinates
``(seed, agent_index, year, tag)``: splitting the agent range across
workers, reordering evaluation, or regenerating a single year's noise
always yields the same values. That property is what makes simulation
output independent of thread count and lets the calibration search reuse
one year's noise across many candidate rates without storing it.

The construction is a keyed SplitMix64 stream: the scalar coordinates
(seed, year, tag) are absorbed into a 64-bit stream origin with the
SplitMix64 finalizer, and agent ``i`` reads output ``i`` of the stream
started there. Uniforms are mapped to normals by inverting the standard
normal CDF, which consumes exactly one uniform per draw (no rejection),
so draw ``i`` never depends on draws ``0..i-1``.

A request is filled in fixed blocks of draws (``_BLOCK`` unless the
stream is given another size): each block runs the integer mix in the
output's own memory, with two reused block-sized buffers, and is then
converted, inverted and scaled while it is still in cache. The
operations per element are the same whatever the block size, so the
block size never changes a value.

Loading the normal inverse
--------------------------
SciPy supplies one ufunc here, ``ndtri``. ``scipy/special/__init__.py``
imports SciPy's array-API layer, and with it ``numpy.f2py``,
``numpy.testing`` and ``charset_normalizer``: about 0.25 s of every
command's start-up, spent before its first line runs. :func:`_load_ndtri`
imports the extension module that defines the ufunc,
``scipy.special._ufuncs``, under a stub package module that stands in
for ``scipy.special`` for the length of that one import. The ufunc is the
same object that ``scipy.special.ndtri`` is, so no draw depends on the
path taken, and a later ``import scipy.special`` reuses the loaded
extension. Two risks come with it:

* ``scipy.special._ufuncs`` is a private name, which SciPy may move; CI
  pins SciPy 1.17. Should the import fail, the loader falls back to
  ``from scipy.special import ndtri``.
* The stub is in ``sys.modules`` while the extension is imported. A
  library user who imports ``scipy.special`` from another thread at that
  moment could be handed the stub.
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np


def _load_ndtri():
    """``scipy.special.ndtri``, without running ``scipy.special``'s
    package init when nothing has imported it yet (module docstring)."""
    if "scipy.special" not in sys.modules:
        import scipy
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
        sys.modules["scipy.special"] = stub
        try:
            from scipy.special._ufuncs import ndtri
            return ndtri
        except (ImportError, AttributeError):
            pass  # the ufunc has moved: load it through the package
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
    from scipy.special import ndtri
    return ndtri


ndtri = _load_ndtri()

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Per-slot salts so (seed, year, tag) permutations cannot collide.
_YEAR_SALT = 0xD1B54A32D192ED03
_TAG_SALT = 0x8CB92BA72F3D8DD7

# Draws per block by default: large enough that a threaded step does not
# hand the interpreter lock over once per small call, small enough that a
# block's two integer buffers and its output (3 x 512 KiB) fit a 2 MiB L2
# cache.
_BLOCK = 1 << 16

# Substream tags.
INIT_TAG = 0
STEP_TAG = 1


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int (exact mod-2^64 arithmetic)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def stream_origin(seed: int, year: int, tag: int) -> int:
    """Absorb the scalar coordinates into a 64-bit stream start state."""
    h = _mix((seed & _MASK64) + _GOLDEN)
    h = _mix(h ^ (year & _MASK64) ^ _YEAR_SALT)
    h = _mix(h ^ (tag & _MASK64) ^ _TAG_SALT)
    return h


class RngStream:
    """Deterministic per-coordinate random source for one seed.

    Parameters
    ----------
    seed : int
        Stream seed; reduced mod 2^64.
    block : int, optional
        Draws filled at a time; ``_BLOCK`` by default. A draw holds two
        buffers of ``block`` 8-byte words beside its output, and each
        block costs a dozen NumPy calls. Never changes a value.
    """

    def __init__(self, seed: int, block: int | None = None):
        if block is not None and block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.seed = int(seed) & _MASK64
        self.block = block

    def __repr__(self):
        return f"RngStream(seed={self.seed})"

    def uniforms(self, year: int, tag: int, lo: int, hi: int) -> np.ndarray:
        """Uniform(0, 1) draws for agents ``lo..hi-1`` at (year, tag).

        Values lie strictly inside (0, 1) so the normal inverse is finite.
        """
        return self._fill(year, tag, lo, hi, normal=False, dt=1.0)

    def normals(self, year: int, tag: int, lo: int, hi: int,
                dt: float = 1.0) -> np.ndarray:
        """N(0, dt) draws for agents ``lo..hi-1`` at (year, tag)."""
        return self._fill(year, tag, lo, hi, normal=True, dt=dt)

    def _fill(self, year: int, tag: int, lo: int, hi: int, normal: bool,
              dt: float) -> np.ndarray:
        if hi < lo:
            raise ValueError(f"invalid agent range [{lo}, {hi})")
        out = np.empty(hi - lo)
        # the integer mix runs in the output's memory, viewed as uint64
        bits = out.view(np.uint64)
        origin = stream_origin(self.seed, year, tag)
        # agent i reads output i of the stream, origin + (i+1)*golden, so a
        # block starting at agent a is origin + (a+1)*golden + j*golden
        block = _BLOCK if self.block is None else self.block
        steps = (np.arange(min(block, hi - lo), dtype=np.uint64)
                 * np.uint64(_GOLDEN))
        t = np.empty_like(steps)
        scale = np.sqrt(dt) if normal and dt != 1.0 else None
        for start in range(0, hi - lo, block):
            o = out[start:start + block]
            zb, tb = bits[start:start + len(o)], t[:len(o)]
            first = (origin + (lo + 1 + start) * _GOLDEN) & _MASK64
            np.add(steps[:len(o)], np.uint64(first), out=zb)
            # SplitMix64 finalizer
            for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
                np.right_shift(zb, np.uint64(shift), out=tb)
                np.bitwise_xor(zb, tb, out=zb)
                np.multiply(zb, np.uint64(mult), out=zb)
            np.right_shift(zb, np.uint64(31), out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            # 53 significant bits, offset by half an ulp: result in (0, 1);
            # the conversion overwrites the mixed state in zb
            np.right_shift(zb, np.uint64(11), out=tb)
            o[...] = tb
            o += 0.5
            o *= 2.0**-53
            if normal:
                ndtri(o, out=o)
                if scale is not None:
                    o *= scale
        return out
