import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, sosfilt

from spectilt import runtime
from spectilt import (
    BandSpec,
    DigitalFilter,
    GaussianSource,
    OutOfRangeError,
    StreamingFilter,
    colored_noise,
    design_tilt,
    digitize_design,
    pink_noise,
)
from test_golden import STREAM_DESIGNS, _design


class TestGaussianSource:
    def test_deterministic_per_seed(self):
        a = GaussianSource(1234).block(4096)
        b = GaussianSource(1234).block(4096)
        assert np.array_equal(a, b)
        c = GaussianSource(1235).block(4096)
        assert not np.array_equal(a, c)

    def test_consecutive_blocks_continue_the_stream(self):
        src = GaussianSource(7)
        joined = np.concatenate([src.block(100), src.block(156)])
        assert np.array_equal(joined, GaussianSource(7).block(256))

    @given(seed=st.integers(0, 2**64 - 1),
           sizes=st.lists(st.integers(0, 300), min_size=1, max_size=8))
    @example(seed=11, sizes=[1, 63, 1000, 4096, 17])
    @settings(max_examples=100, deadline=None)
    def test_draws_do_not_depend_on_chunking(self, seed, sizes):
        src = GaussianSource(seed)
        joined = np.concatenate([src.block(n) for n in sizes])
        assert np.array_equal(joined, GaussianSource(seed).block(sum(sizes)))

    def test_unit_variance_and_zero_mean(self):
        x = GaussianSource(42).block(1 << 18)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01
        assert np.all(np.isfinite(x))


def _single_section_filter(b0, b1, a1, gain=1.0, fs=48000.0):
    return StreamingFilter(DigitalFilter(sos=[[b0, b1, 0.0, 1.0, a1, 0.0]],
                                         gain=gain, sample_rate_hz=fs))


class TestProcess:
    def test_identity_at_zero_slope(self):
        filt = StreamingFilter.for_design(design_tilt(0.0), 48000.0)
        x = np.random.default_rng(3).standard_normal(4096)
        y = filt.process(x)
        assert np.max(np.abs(y - x)) < 1e-12

    def test_impulse_matches_unrolled_recursion(self):
        b0, b1, a1 = 0.7, -0.2, -0.5
        filt = _single_section_filter(b0, b1, a1)
        x = np.zeros(6)
        x[0] = 1.0
        y = filt.process(x)
        expected = [b0, b1 - a1 * b0]
        for _ in range(4):
            expected.append(-a1 * expected[-1])
        assert y == pytest.approx(expected, rel=1e-15)

    def test_two_dimensional_block_rejected(self):
        filt = _single_section_filter(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            filt.process(np.ones((2, 4)))

    def test_gain_applied_once(self):
        filt = _single_section_filter(1.0, 0.0, 0.0, gain=2.5)
        y = filt.process(np.ones(4))
        assert y == pytest.approx([2.5] * 4)

    def test_linearity(self, default_design):
        x = np.random.default_rng(11).standard_normal(2048)
        y = np.random.default_rng(12).standard_normal(2048)
        f1 = StreamingFilter.for_design(default_design, 48000.0)
        f2 = StreamingFilter.for_design(default_design, 48000.0)
        f3 = StreamingFilter.for_design(default_design, 48000.0)
        lhs = f1.process(x + y)
        rhs = f2.process(x) + f3.process(y)
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_chunk_invariance_bitwise(self, default_design):
        x = GaussianSource(5).block(10000)
        one = StreamingFilter.for_design(default_design, 48000.0).process(x)
        filt = StreamingFilter.for_design(default_design, 48000.0)
        pieces = [filt.process(x[a:b]) for a, b in [(0, 1), (1, 64), (64, 5000), (5000, 10000)]]
        assert np.array_equal(one, np.concatenate(pieces))

    def test_rejects_nan(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        bad = np.ones(16)
        bad[7] = np.nan
        with pytest.raises(ValueError):
            filt.process(bad)

    def test_empty_block(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        assert filt.process(np.array([])).size == 0

    def test_returns_a_new_array_and_leaves_the_input(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        x = GaussianSource(8).block(1000)
        before = x.copy()
        y = filt.process(x)
        assert not np.shares_memory(x, y)
        assert np.array_equal(x, before)


def _per_section_lfilter(dfilt, gain, x):
    """The cascade as one lfilter recursion per section, gain applied last."""
    y = x
    for b0, b1, _, _, a1, _ in dfilt.sos:
        y = lfilter([b0, b1], [1.0, a1], y)
    return gain * y


class TestKernelReference:
    """The compiled loop on first-order rows reproduces the per-section
    recursion bit for bit.  A filter built for a design runs such rows; a
    bare-coefficient filter pairs them (see TestRowLayout)."""

    DESIGNS = {
        "stock-48k": (lambda: design_tilt(-0.5), 48000.0),
        "integer-part-44k1": (
            lambda: design_tilt(-0.9837, 20, 3, 20.0, 20000.0, integer_part=-2), 44100.0),
    }

    @pytest.mark.parametrize("chunk", [1, 63, 64, 65536, None])
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_matches_per_section_lfilter(self, name, chunk):
        make, fs = self.DESIGNS[name]
        dfilt, _ = digitize_design(make(), fs)
        # Per-sample calls are slow, so chunk 1 streams a shorter prefix.
        n = 4000 if chunk == 1 else 70000
        x = GaussianSource(17).block(n)
        chunk = chunk or n
        # At the design slope, for_design's numerators are the file's.
        filt = StreamingFilter.for_design(make(), fs)
        y = np.concatenate([filt.process(x[i:i + chunk]) for i in range(0, n, chunk)])
        assert np.array_equal(y, _per_section_lfilter(dfilt, filt.gain, x))


def _paired_reference(sos):
    """Rows pairing section k with section n-1-k by np.polymul; an odd
    count's middle section last, as a first-order row."""
    n = len(sos)
    rows = [np.concatenate([np.polymul(sos[k, :2], sos[n - 1 - k, :2]),
                            np.polymul([1.0, sos[k, 4]], [1.0, sos[n - 1 - k, 4]])])
            for k in range(n // 2)]
    return np.array(rows + [sos[n // 2]] * (n % 2))


class TestRowLayout:
    """A bare-coefficient filter runs paired second-order rows; a filter
    built for a design keeps first-order rows."""

    @pytest.mark.parametrize("name", sorted(STREAM_DESIGNS))
    def test_bare_filter_runs_exact_low_with_high_products(self, name):
        args, fs = STREAM_DESIGNS[name]
        dfilt, _ = digitize_design(_design(*args), fs)
        filt = StreamingFilter(dfilt)
        rows = _paired_reference(dfilt.sos)
        assert np.array_equal(filt._sos, rows)
        x = GaussianSource(19).block(5000)
        assert np.array_equal(filt.process(x), dfilt.gain * sosfilt(rows, x))

    def test_odd_count_keeps_one_first_order_row(self):
        args, fs = STREAM_DESIGNS["integer-part-1-48k"]
        dfilt, _ = digitize_design(_design(*args), fs)
        filt = StreamingFilter(dfilt)
        assert len(dfilt.sos) == 7 and filt._sos.shape == (4, 6)
        assert np.array_equal(filt._sos[-1], dfilt.sos[3])
        assert np.all(filt._sos[:-1, 2:6:3] != 0.0)
        assert filt._state.shape == (1, 4, 2)

    def test_denominators_are_the_first_order_a1(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        for filt in (StreamingFilter(dfilt), StreamingFilter.for_design(default_design, 48000.0)):
            assert filt.denominators.tobytes() == dfilt.sos[:, 4].tobytes()

    def test_any_chunking_gives_the_same_bytes(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        x = GaussianSource(21).block(1 << 16)
        whole = StreamingFilter(dfilt).process(x)
        filt = StreamingFilter(dfilt)
        pieces = np.concatenate([filt.process(x[i:i + 63]) for i in range(0, len(x), 63)])
        assert pieces.tobytes() == whole.tobytes()

    def test_design_filter_keeps_first_order_rows(self, default_design):
        # A swept stream equals the first-order cascade at the rebuilt
        # numerators, each block's state carried over, bit for bit.
        dfilt, ctx = digitize_design(default_design, 48000.0)
        filt = StreamingFilter.for_design(default_design, 48000.0)
        assert np.array_equal(filt._sos, dfilt.sos)
        x = GaussianSource(23).block(64 * 40)
        state = np.zeros((len(dfilt.sos), 2))
        for j, alpha in enumerate(np.linspace(-1.0, 1.0, 40)):
            filt.set_alpha(float(alpha))
            b0, b1, gain = ctx.rebuild(float(alpha))
            sos = dfilt.sos.copy()
            sos[:, 0], sos[:, 1] = b0, b1
            block = x[64 * j:64 * (j + 1)]
            ref, state = sosfilt(sos, block, zi=state)
            assert np.array_equal(filt.process(block), gain * ref)


class TestCascadeSelection:
    """The compiled loop is chosen once at import, from the extension file
    that importlib's path finder finds in scipy's signal directory; the
    public wrapper runs only where the finder finds none or the loop fails
    its probe (tests/test_golden.py shows both paths give the same bits)."""

    def test_compiled_loop_is_selected(self):
        assert runtime._cascade is sys.modules["scipy.signal._sosfilt"]._sosfilt

    def test_missing_extension_yields_no_compiled_loop(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.signal._sosfilt", raising=False)
        monkeypatch.setattr(runtime.importlib.machinery.PathFinder, "find_spec",
                            lambda name, path=None, target=None: None)
        assert runtime._compiled_cascade() is None

    def test_state_is_updated_in_place(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        state = filt._state
        filt.process(GaussianSource(3).block(100))
        assert filt._state is state and state.shape == (1, len(filt.denominators), 2)
        assert np.any(state != 0.0)


class TestSetAlpha:
    def test_requires_design_context(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        bare = StreamingFilter(dfilt)
        rows = bare._sos.copy()
        with pytest.raises(OutOfRangeError):
            bare.set_alpha(0.0)
        assert np.array_equal(bare._sos, rows)

    def test_out_of_range(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        with pytest.raises(OutOfRangeError):
            filt.set_alpha(1.5)

    def test_same_alpha_is_bit_exact_noop(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        b0 = filt._sos[:, 0].copy()
        b1 = filt._sos[:, 1].copy()
        gain = filt.gain
        filt.set_alpha(default_design.spec.alpha)
        assert np.array_equal(filt._sos[:, 0], b0)
        assert np.array_equal(filt._sos[:, 1], b1)
        assert filt.gain == gain

    def test_states_preserved_across_update(self, default_design):
        x = GaussianSource(9).block(256)
        a = StreamingFilter.for_design(default_design, 48000.0)
        b = StreamingFilter.for_design(default_design, 48000.0)
        ya = [a.process(x[:128])]
        b.process(x[:128])
        b.set_alpha(default_design.spec.alpha)  # bit-exact no-op keeps states
        ya.append(a.process(x[128:]))
        yb = b.process(x[128:])
        assert np.array_equal(ya[1], yb)

    def test_denominators_constant_under_schedule(self, default_design):
        filt = StreamingFilter.for_design(default_design, 48000.0)
        a1 = filt.denominators
        x = GaussianSource(13).block(64)
        for alpha in np.linspace(-1.0, 1.0, 65):
            filt.set_alpha(float(alpha))
            filt.process(x)
        assert np.array_equal(filt.denominators, a1)

    def test_max_in_band_gain_bounded(self, default_design):
        # Edge-anchored leveling: no in-band frequency ever exceeds unity gain.
        from spectilt import digital_response

        dfilt, ctx = digitize_design(default_design, 48000.0)
        f = np.linspace(20.0, 20000.0, 400)
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            b0, b1, gain = ctx.rebuild(alpha)
            sos = dfilt.sos.copy()
            sos[:, 0] = b0
            sos[:, 1] = b1
            probe = DigitalFilter(sos=sos, gain=gain, sample_rate_hz=48000.0)
            mags = np.abs(digital_response(probe, f))
            assert np.max(mags) < 1.05


class TestNoise:
    def test_pink_deterministic(self):
        a = pink_noise(seed=77, n_samples=4096, fs_hz=48000.0)
        b = pink_noise(seed=77, n_samples=4096, fs_hz=48000.0)
        assert np.array_equal(a, b)

    def test_color_zero_is_white(self):
        x = colored_noise(0.0, seed=3, n_samples=4096, fs_hz=48000.0)
        w = GaussianSource(3).block(4096)
        assert np.max(np.abs(x - w)) < 1e-12

    def test_band_argument(self):
        x = pink_noise(seed=1, n_samples=1024, fs_hz=8000.0, band=BandSpec(10.0, 3000.0))
        assert np.all(np.isfinite(x))

    def test_successive_calls_return_independent_arrays(self):
        a = colored_noise(-0.5, seed=4, n_samples=4096, fs_hz=48000.0)
        b = colored_noise(-0.5, seed=4, n_samples=4096, fs_hz=48000.0)
        assert not np.shares_memory(a, b)
        expected = b.copy()
        a[:] = 0.0
        assert np.array_equal(b, expected)

    def test_needs_samples(self):
        with pytest.raises(OutOfRangeError):
            colored_noise(-0.5, seed=0, n_samples=0, fs_hz=48000.0)
