"""Streaming sample processing, live slope modulation, and 1/f-family noise.

The cascade runs through the compiled loop behind ``scipy.signal.sosfilt``,
one call per block, in one of two row layouts.  Every pole and zero of a
tilt design is real, so a first-order section is the row
``[b0, b1, 0, 1, a1, 0]``, on which the loop spends half its work on zeros.

- A filter built from bare coefficients runs paired rows: section k times
  section n-1-k, lowest pole with highest, as one biquad holding the exact
  products of the two first-order rows; with an odd count the middle
  section stays a first-order row.  This halves the loop's work.  Pairing
  neighbours instead puts two poles near z = 1 in one biquad and loses
  about three digits (see tests/test_precision.py).
- A filter built for a design keeps first-order rows.  Each runs in
  transposed direct form, so numerators can be swapped between blocks
  without disturbing the stored state, and since the poles of a tilt design
  never move, changing the slope only rewrites the numerator columns (and
  the block-level gain): the denominators are bit-identical across any
  modulation schedule.  A paired row's state does not carry a numerator
  swap the way its two first-order states do: swept -1 to 1 with a rebuild
  every 64 samples, the paired output of the stock design drifts 3.5e-4 to
  1.2e-3 of its peak from the first-order cascade, the faster the sweep the
  further.

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
from .errors import AboveNyquistError, OutOfRangeError

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


def _paired_rows(sos: np.ndarray) -> np.ndarray:
    """Cascade rows pairing first-order section k with section n-1-k, for
    k < n/2: numerator and denominator are the exact products
    (b0_i + b1_i/z)(b0_j + b1_j/z) and (1 + a1_i/z)(1 + a1_j/z).  With an
    odd count the middle section is the last row, as it stands."""
    n = len(sos)
    low, high = sos[:n // 2], sos[:(n - 1) // 2:-1]
    rows = sos[:(n + 1) // 2].copy()
    rows[:n // 2] = np.column_stack([
        low[:, 0] * high[:, 0],
        low[:, 0] * high[:, 1] + low[:, 1] * high[:, 0],
        low[:, 1] * high[:, 1],
        np.ones(n // 2),
        low[:, 4] + high[:, 4],
        low[:, 4] * high[:, 4],
    ])
    return rows


class StreamingFilter:
    """Stateful cascade of a digital filter's first-order sections.

    A filter built from bare coefficients runs them as paired second-order
    rows; one built by for_design keeps first-order rows, whose numerators
    set_alpha rewrites (see the module docstring).  One instance is owned by
    one processing context at a time; hand the whole object between
    threads, never share it.  Slope updates arrive between blocks through
    set_alpha.
    """

    def __init__(self, digital: DigitalFilter):
        self._use_rows(_paired_rows(digital.sos))
        # The first-order a1 of every section, in section order.
        self._a1 = digital.sos[:, 4]
        self._gain = digital.gain
        self._fs = digital.sample_rate_hz
        self._mod: ModulationContext | None = None

    def _use_rows(self, sos: np.ndarray) -> None:
        """Run the cascade rows sos, from a zero state."""
        self._sos = sos
        # Updated in place by every block, in the kernel's (1, rows, 2) layout.
        self._state = np.zeros((1, len(sos), 2))

    @classmethod
    def for_design(cls, design: TiltDesign, fs_hz: float) -> "StreamingFilter":
        """Build from a design, keeping the context needed for set_alpha: the
        one way to get a filter that set_alpha can drive."""
        digital, context = digitize_design(design, fs_hz)
        out = cls(digital)
        # First-order rows, whose states carry the numerator swaps of
        # set_alpha; paired rows would not (see the module docstring).  A
        # writable copy: set_alpha rewrites the numerator columns in place.
        out._use_rows(digital.sos.copy())
        out._a1 = out._sos[:, 4]  # denominators reads the live rows
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
        """The first-order a1 of every section, in section order, whatever
        the row layout."""
        return self._a1.copy()

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
    # digitize_design would clamp the band's top zeros below fs/2 without a
    # word.  Written so that an infinite fs passes on to its own message.
    if not band.f_max_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"band edge f_max={band.f_max_hz!r} Hz is not below "
                                f"fs/2={0.5 * fs_hz!r} Hz")
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
