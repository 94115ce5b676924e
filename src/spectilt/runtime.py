"""Streaming sample processing, live slope modulation, and 1/f-family noise.

The cascade runs first-order rows ``[b0, b1, 0, 1, a1, 0]`` through the
compiled loop behind ``scipy.signal.sosfilt``, one call per block.  Each row
runs in transposed direct form, so coefficients can be swapped between
blocks without disturbing the stored state.  Because the poles of a tilt
design never move, changing the slope only rewrites the numerator columns
(and the block-level gain): the denominators are bit-identical across any
modulation schedule.

This is the only module that loads scipy; the package and the CLI import it
on first use.  The compiled loop is loaded from its extension file, which
importlib's path finder looks up in scipy's ``signal`` directory, so
streaming never imports ``scipy.signal`` (about a second).  Noise draws its
normals from numpy's Philox generator and loads no further scipy module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .design import BandSpec, TiltDesign, design_tilt
from .digitize import DigitalFilter, ModulationContext, digitize_design
from .errors import OutOfRangeError

DEFAULT_BAND = BandSpec(20.0, 20000.0)


def _sosfilt_module():
    """The extension module ``scipy.signal._sosfilt``: the one already
    imported, else loaded from its file in scipy's ``signal`` directory
    without importing ``scipy.signal``; None if importlib's path finder
    finds no such file.  A module loaded here leaves no parentless entry in
    ``sys.modules``; a later ``import scipy.signal`` binds the same module
    object."""
    name = "scipy.signal._sosfilt"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy.submodule_search_locations if scipy else None) or ()
    ext = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, "signal") for root in roots])
    if ext is None:
        return None
    module = importlib.util.module_from_spec(ext)
    try:
        ext.loader.exec_module(module)
    finally:
        # The extension registers itself on exec.
        if sys.modules.get(name) is module:
            del sys.modules[name]
    return module


def _compiled_cascade():
    """scipy's compiled ``_sosfilt(sos, x, zi)``; None if it is missing or no
    longer filters a (1, n) block and a (1, sections, 2) state in place."""
    try:
        kernel = _sosfilt_module()._sosfilt
        # y = x + 0.25*x[-1] + 0.5*y[-1] from a stored state of 2:
        # y = [3, 1.75], leaving 0.5*1.75 in the state.
        x = np.array([[1.0, 0.0]])
        zi = np.array([[[2.0, 0.0]]])
        kernel(np.array([[1.0, 0.25, 0.0, 1.0, -0.5, 0.0]]), x, zi)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None
    in_place = x.tolist() == [[3.0, 1.75]] and zi.tolist() == [[[0.875, 0.0]]]
    return kernel if in_place else None


def _public_cascade(sos, x, zi) -> None:
    """``scipy.signal.sosfilt`` with the compiled loop's in-place contract."""
    from scipy.signal import sosfilt

    x[0], zi[0] = sosfilt(sos, x[0], zi=zi[0])


# Chosen once: the public wrapper costs the scipy.signal import and about
# 25 us a call on top of the same loop, so it runs only where the compiled
# loop cannot be reached.
_cascade = _compiled_cascade() or _public_cascade


class GaussianSource:
    """Deterministic standard-normal stream from numpy's counter-based Philox
    generator.  The same seed always yields the same samples, however the
    stream is split into blocks."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))

    def block(self, n: int) -> np.ndarray:
        """Next n samples; consecutive calls continue the stream."""
        return self._rng.standard_normal(int(n))


class StreamingFilter:
    """Stateful cascade of first-order sections with one unit delay each.

    One instance is owned by one processing context at a time; hand the whole
    object between threads, never share it.  Slope updates arrive between
    blocks through set_alpha.
    """

    def __init__(self, digital: DigitalFilter):
        # A writable copy: set_alpha rewrites the numerator columns in place.
        self._sos = digital.sos.copy()
        self._gain = digital.gain
        # Updated in place by every block, in the kernel's (1, sections, 2) layout.
        self._state = np.zeros((1, len(self._sos), 2))
        self._fs = digital.sample_rate_hz
        self._mod: ModulationContext | None = None

    @classmethod
    def for_design(cls, design: TiltDesign, fs_hz: float) -> "StreamingFilter":
        """Build from a design, keeping the context needed for set_alpha: the
        one way to get a filter that set_alpha can drive."""
        digital, context = digitize_design(design, fs_hz)
        out = cls(digital)
        out._mod = context
        # The numerators are already rebuild's at the design slope; this only
        # moves the gain from the file's band-center level to the edge level.
        out.set_alpha(design.spec.alpha)
        return out

    @property
    def sample_rate_hz(self) -> float:
        return self._fs

    @property
    def gain(self) -> float:
        return self._gain

    @property
    def denominators(self) -> np.ndarray:
        return self._sos[:, 4].copy()

    def process(self, block) -> np.ndarray:
        """Run one block through the cascade; gain is applied once per block.

        Output is independent of how the input is chunked: section states
        carry the recursion across calls exactly.  The result is a new
        array; the input is left as it was.
        """
        x = np.asarray(block, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("expected a one-dimensional block of samples")
        if x.size == 0:
            return x.copy()
        return self._process_in_place(x.copy())

    def _process_in_place(self, y: np.ndarray) -> np.ndarray:
        """process on y, a non-empty, contiguous, one-dimensional float64
        block, written over y; returns y."""
        if not np.isfinite(y).all():
            raise ValueError("input block contains NaN or Inf")
        _cascade(self._sos, y[None], self._state)
        y *= self._gain
        return y

    def set_alpha(self, alpha: float) -> None:
        """Slide the zero array to a new slope; poles and states are untouched."""
        if self._mod is None:
            raise OutOfRangeError("this filter was built from bare coefficients; "
                                  "slope modulation needs the design context")
        self._gain = self._mod._rebuild_into(alpha, self._sos[:, 0], self._sos[:, 1])


def _swept_blocks(filt: StreamingFilter, chunks, schedule, block: int):
    """filt's output for each chunk of samples, written over the chunk, with
    the slope set to schedule(t) at the start of every ``block``-sample
    control block, t in seconds from the first sample: the samples of
    set_alpha then process per control block.  A chunk's slopes are rebuilt
    in batched calls and written into the cascade block by block; each block
    is checked as process checks it.  Every chunk but the last must hold
    whole control blocks."""
    pos = 0
    for x in chunks:
        starts = range(0, len(x), block)
        rows = filt._mod._rebuild_rows([schedule((pos + start) / filt._fs) for start in starts])
        for start, (numerators, gain) in zip(starts, rows):
            filt._sos[:, :2] = numerators
            filt._gain = gain
            filt._process_in_place(x[start:start + block])
        pos += len(x)
        yield x


def _noise_blocks(alpha: float, seed: int, n_samples: int, fs_hz: float,
                  band: BandSpec, block: int):
    """colored_noise's samples as filtered blocks of ``block`` samples, the
    last one shorter if need be.  Every argument is checked and the filter
    built before this returns; the blocks are drawn as they are consumed,
    each into one reused buffer and filtered there, so a block is valid only
    until the next one is requested."""
    n = int(n_samples)
    if n < 1:
        raise OutOfRangeError(f"need at least one sample, got {n_samples}")
    design = design_tilt(alpha, f_min_hz=band.f_min_hz, f_max_hz=band.f_max_hz)
    filt = StreamingFilter.for_design(design, fs_hz)
    rng = GaussianSource(seed)._rng
    buffer = np.empty(min(block, n))
    return (filt._process_in_place(rng.standard_normal(out=buffer[:min(block, n - i)]))
            for i in range(0, n, block))


def colored_noise(
    alpha: float,
    seed: int,
    n_samples: int,
    fs_hz: float,
    band: BandSpec = DEFAULT_BAND,
) -> np.ndarray:
    """Unit-variance white noise shaped by the stock slope-alpha design for the band."""
    return next(_noise_blocks(alpha, seed, n_samples, fs_hz, band, int(n_samples)))


def pink_noise(seed: int, n_samples: int, fs_hz: float, band: BandSpec = DEFAULT_BAND) -> np.ndarray:
    """1/f noise: power falls 3 dB per octave across the band."""
    return colored_noise(-0.5, seed, n_samples, fs_hz, band=band)
