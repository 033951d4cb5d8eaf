"""Tests for the spectral decay fit, the delta map, and the rational fit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import AAA

from gclm import exact
from gclm.spectral import Domain, SpectralField
from gclm.tracker import (
    AAA_CLEAN_UP_TOL,
    AAA_TAIL_FACTOR,
    AAA_TOL,
    SpectrumTooCleanError,
    aaa_approximate,
    delta_to_x,
    fit_fourier_decay,
)


def planted_spectrum(amplitude, delta, p, grid_size=256):
    """Real field with |w_k| = amplitude e^{-delta k} k^{-p} for k >= 1."""
    coeffs = np.zeros(grid_size + 1, dtype=complex)
    k = np.arange(1, grid_size)
    coeffs[k] = amplitude * np.exp(-delta * k) * k.astype(float) ** (-p)
    return SpectralField(coeffs, Domain.CIRCLE)


class TestFourierDecayFit:
    def test_recovers_planted_envelope(self):
        f = planted_spectrum(5.0, 0.15, 2.0)
        fit = fit_fourier_decay(f)
        assert fit.amplitude == pytest.approx(5.0, rel=1e-10)
        assert fit.delta == pytest.approx(0.15, abs=1e-10)
        assert fit.p == pytest.approx(2.0, abs=1e-10)

    @given(st.floats(min_value=0.02, max_value=0.15),
           st.floats(min_value=-1.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_recovery_is_exact_for_clean_data(self, delta, p):
        fit = fit_fourier_decay(planted_spectrum(2.0, delta, p))
        assert fit.delta == pytest.approx(delta, abs=1e-8)
        assert fit.p == pytest.approx(p, abs=1e-6)

    def test_window_shift_changes_little_on_pole_data(self):
        # genuine pole spectrum: the default [N/4, N/3] window and a
        # shifted [N/5, N/4] window must agree to 2 percent
        f = exact.OnePairS1State(omega_m1_0=-2.0, v_c0=0.05).field(512)
        d_default = fit_fourier_decay(f).delta
        d_shifted = fit_fourier_decay(f, window=(0.2, 0.25)).delta
        assert abs(d_shifted - d_default) < 0.02 * d_default

    def test_pole_family_distance_from_spectrum(self):
        # pole at x = 0.15i: tanh(delta/2) recovers the distance within 1%
        st_ = exact.OnePairS1State(omega_m1_0=-2.0, v_c0=0.15)
        f = st_.field(256)
        fit = fit_fourier_decay(f)
        dist = delta_to_x(fit.delta, Domain.LINE)
        assert dist == pytest.approx(0.15, rel=1e-2)
        assert abs(fit.p) < 0.05  # simple pole: no algebraic correction

    def test_too_clean_spectrum_raises(self):
        f = SpectralField.from_function(np.sin, 128)
        with pytest.raises(SpectrumTooCleanError):
            fit_fourier_decay(f)


class TestDeltaMap:
    def test_circle_is_identity(self):
        assert delta_to_x(0.37, Domain.CIRCLE) == 0.37

    def test_line_interior_value(self):
        assert delta_to_x(0.2, Domain.LINE) == pytest.approx(
            np.tanh(0.1), abs=1e-15)

    def test_line_boundary_value(self):
        assert delta_to_x(0.2, Domain.LINE, at_boundary=True) == \
            pytest.approx(1.0 / np.tanh(0.1), abs=1e-12)

    def test_small_delta_is_linear_interior(self):
        assert delta_to_x(1e-6, Domain.LINE) == pytest.approx(5e-7, rel=1e-9)


class TestRationalApprox:
    def test_poles_of_lorentzian(self):
        # f = 1/(x^2+1) has poles +-i with residues -+ i/2
        x = np.linspace(-5.0, 5.0, 400)
        fit = aaa_approximate(x, 1.0 / (x**2 + 1.0))
        assert not fit.non_converged
        poles = fit.poles_near_axis()
        assert poles.size == 2
        low = poles[np.argsort(poles.imag)][0]
        assert low == pytest.approx(-1j, abs=1e-10)
        res = fit.residues[np.argmin(np.abs(fit.poles - 1j))]
        assert res == pytest.approx(-0.5j, abs=1e-10)

    def test_poles_near_axis_orders_by_distance_to_the_samples(self):
        # tanh(5x) on [-1, 1]: AAA also places a real pole near x = -219,
        # closer to the axis than +-i pi/10 but far from the data
        x = np.linspace(-1.0, 1.0, 400)
        fit = aaa_approximate(x, np.tanh(5.0 * x))
        assert np.min(np.abs(fit.poles.imag)) < 1e-6
        assert np.max(np.abs(fit.poles.real)) > 100.0
        near = fit.poles_near_axis()
        assert sorted(near[:2].imag) == pytest.approx(
            [-0.1 * np.pi, 0.1 * np.pi], abs=1e-10)
        assert near[-1].real < -100.0

    def test_wide_loewner_interpolates(self):
        # 8 support points among 12 samples: from the 7th step on, fewer
        # samples are free than there are weights, and a null vector of
        # the Loewner matrix gives a rational through all 12 to round-off
        x = np.linspace(-1.0, 1.0, 12)
        fit = aaa_approximate(x, np.exp(x) + np.abs(x), tol=0.0, max_degree=8)
        assert fit.support_points.size == 8
        assert fit.max_error < 1e-14

    def test_recovers_planted_complex_pole(self):
        # one-pair field with v_c = 0.3 + 0.1i: pole at x = i v_c
        st_ = exact.OnePairS1State(omega_m1_0=-2.0, v_c0=0.3 + 0.1j)
        x = np.linspace(-6.0, 6.0, 600)
        fit = aaa_approximate(x, st_.evaluate(x))
        target = 1j * (0.3 + 0.1j)
        nearest = fit.poles[np.argmin(np.abs(fit.poles - target))]
        assert nearest == pytest.approx(target, abs=1e-6)

    def test_conjugate_poles_pair_up(self):
        # real data: poles come in conjugate pairs to high accuracy
        st_ = exact.TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                                   v_c1_0=0.2, v_c2_0=0.9)
        x = np.linspace(-8.0, 8.0, 800)
        fit = aaa_approximate(x, st_.evaluate(x))
        lower = np.sort_complex(fit.poles[fit.poles.imag < 0])
        upper = np.sort_complex(np.conj(fit.poles[fit.poles.imag > 0]))
        assert lower.size == upper.size
        assert np.max(np.abs(lower - upper)) < 1e-8

    def test_constant_has_no_poles(self):
        x = np.linspace(-1.0, 1.0, 64)
        fit = aaa_approximate(x, np.full_like(x, 0.7))
        assert fit.poles.size == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degree_cap_flags_non_convergence(self):
        rng = np.random.default_rng(0)
        x = np.linspace(-1.0, 1.0, 200)
        y = np.abs(x) + 0.01 * rng.standard_normal(x.size)
        fit = aaa_approximate(x, y, tol=1e-13, max_degree=6)
        assert fit.non_converged

    def test_max_error_bounds_the_samples(self):
        # max_error is the approximant's largest miss on the sample points
        x = np.linspace(-3.0, 3.0, 200)
        y = x / (x**2 + 0.25)
        fit = aaa_approximate(x, y)
        assert fit.max_error < 1e-11

    def test_pole_sum_tracks_schochet_invariant(self):
        # x1 + x2 is conserved; the rational fit sees it to 1e-4
        st_ = exact.SchochetState()
        tc = st_.collapse_time()
        x = np.linspace(-10.0, 10.0, 1500)
        sums = []
        for t in (0.0, 0.5 * tc):
            fit = aaa_approximate(x, st_.advance(t).evaluate(x))
            lower = fit.poles[fit.poles.imag < 0]
            # each double pole splits into a symmetric pair of simple
            # poles, so half the sum of the four estimates x1 + x2
            assert lower.size == 4
            sums.append(0.5 * np.sum(lower))
        assert sums[0] == pytest.approx(-3j, abs=1e-4)
        assert abs(sums[1] - sums[0]) < 1e-4 * abs(sums[0])


def fit_and_scipys(x, y, tol=AAA_TOL, max_degree=100, clean_up=True):
    """The numpy fit, which must warn of nothing, and scipy's AAA on the
    same data; both choose the same support points."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = aaa_approximate(x, y, tol=tol, max_degree=max_degree)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "AAA failed to converge")
        warnings.filterwarnings("ignore", ".*Froissart doublets")
        ref = AAA(x, y, rtol=tol, max_terms=max_degree, clean_up=clean_up,
                  clean_up_tol=AAA_CLEAN_UP_TOL)
    assert np.array_equal(fit.support_points, ref.support_points)
    return fit, ref


def assert_near_poles_match(fit, ref, x, count, rtol):
    """scipy's ``count`` poles nearest the sample points x, and their
    residues (to 10 rtol), are the numpy fit's. The weights come from
    another LAPACK, so poles far from the data, which hang on the weights'
    last digits, may differ more."""
    poles, residues = ref.poles(), ref.residues()
    dist = np.min(np.abs(np.subtract.outer(poles, x)), 1)
    for i in np.argsort(dist)[:count]:
        j = np.argmin(np.abs(fit.poles - poles[i]))
        assert abs(fit.poles[j] - poles[i]) <= rtol * abs(poles[i])
        assert abs(fit.residues[j] - residues[i]) <= 10 * rtol * abs(
            residues[i])


class TestAgainstScipy:
    """The numpy AAA against scipy.interpolate.AAA with the same rtol and
    max_terms."""

    def test_tanh_poles_to_round_off(self):
        # tanh(5x) on 1001 nodes: the poles nearest the data are +-i pi/10
        x = np.linspace(-1.0, 1.0, 1001)
        fit, ref = fit_and_scipys(x, np.tanh(5.0 * x))
        for p in (0.1j * np.pi, -0.1j * np.pi):
            assert np.min(np.abs(fit.poles - p)) <= 1e-11
        assert_near_poles_match(fit, ref, x, 2, 1e-13)

    def test_two_pole_pairs(self):
        st_ = exact.TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                                   v_c1_0=0.2, v_c2_0=0.9)
        x = np.linspace(-8.0, 8.0, 800)
        fit, ref = fit_and_scipys(x, st_.evaluate(x))
        assert fit.poles.size == ref.poles().size == 4
        assert_near_poles_match(fit, ref, x, 4, 1e-13)

    def test_collapse_snapshot(self):
        # the final snapshot of criterion 03's run capped at N = 512 (the
        # benchmark's circle config), at the tolerance harness.run uses
        from gclm.dynamics import RunControls, simulate
        from gclm.harness import two_mode_field
        from gclm.spectral import GclmParams

        _, final = simulate(two_mode_field(4.0, 64),
                            GclmParams(a=0.5, sigma=1.0, nu=1.0),
                            RunControls(t_end=1.4, n0=64, n_max=512))
        field = final.field
        tol = max(AAA_TOL, AAA_TAIL_FACTOR * field.tail_magnitude()
                  / np.max(np.abs(field.coeffs)))
        fit, ref = fit_and_scipys(field.grid(), field.values(), tol=tol)
        assert not fit.non_converged
        assert_near_poles_match(fit, ref, field.grid(), 4, 1e-10)


class TestDoubletCleanUp:
    """Froissart doublets: poles whose |residue| / (distance to the nearest
    sample) is below AAA_CLEAN_UP_TOL times the geometric mean of |f|."""

    x = np.linspace(-1.0, 1.0, 256)

    def test_clean_input_matches_scipy(self):
        # tanh(20x): poles at (2k + 1) i pi/40; the six nearest the data
        fit, ref = fit_and_scipys(self.x, np.tanh(20.0 * self.x),
                                  max_degree=60)
        assert not fit.non_converged
        assert fit.poles.size == ref.poles().size
        # the pair +-i pi/40 to round-off; the two pairs beyond it sit
        # farther from the data, where the weights' last digits show
        assert_near_poles_match(fit, ref, self.x, 2, 1e-13)
        assert_near_poles_match(fit, ref, self.x, 6, 1e-8)

    def test_noisy_input_removes_scipys_doublet(self):
        # exp(x) with noise at the tolerance: the fit runs to its cap and
        # fits the noise with poles just off the data. One of them is a
        # doublet for both implementations, and both remove the same
        # support point and solve the weights again on the other 59
        noise = np.random.default_rng(12).standard_normal(self.x.size)
        y = np.exp(self.x) + 1e-12 * noise
        fit, ref = fit_and_scipys(self.x, y, max_degree=60)
        assert fit.non_converged
        assert fit.support_points.size == 59
        # every pole within 1 of the data, to round-off; a residue moves f
        # by residue/distance there, so it is fixed only to that scale
        poles, residues = ref.poles(), ref.residues()
        dist = np.min(np.abs(np.subtract.outer(poles, self.x)), 1)
        assert np.count_nonzero(dist < 1.0) > 50
        for i in np.flatnonzero(dist < 1.0):
            j = np.argmin(np.abs(fit.poles - poles[i]))
            assert abs(fit.poles[j] - poles[i]) <= 1e-13 * abs(poles[i])
            assert abs(fit.residues[j] - residues[i]) <= 1e-11 * np.max(
                np.abs(y)) * dist[i]

    def test_noisy_input_keeps_scipys_support_points(self):
        # noise at the tolerance: the fit runs to its cap and fits the
        # noise. scipy's clean-up drops one support point here, for a pole
        # near -0.0973 whose residue its eigensolver puts at -8.1e-18; the
        # residue of that rational there is -4.1e-16, which is no doublet
        noise = np.random.default_rng(4).standard_normal(self.x.size)
        y = np.tanh(20.0 * self.x) + 1e-12 * noise
        fit, ref = fit_and_scipys(self.x, y, max_degree=60, clean_up=False)
        assert fit.non_converged
        assert fit.support_points.size == 60
        for p in (1j * np.pi / 40, -1j * np.pi / 40):
            i = np.argmin(np.abs(ref.poles() - p))
            j = np.argmin(np.abs(fit.poles - p))
            assert abs(fit.poles[j] - ref.poles()[i]) <= 1e-12 * abs(p)

    def test_round_off_doublets_leave_the_one_pole(self):
        # 1/(x - 1.5) fitted past round-off: 8 support points where 2 do,
        # and 6 spurious poles, each a doublet; each takes its nearest
        # support point with it, and the weights solved again on the rest
        # give back the one pole, with residue 1
        y = 1.0 / (self.x - 1.5)
        fit = aaa_approximate(self.x, y, tol=1e-16, max_degree=8)
        assert fit.support_points.size == 2
        assert fit.poles.size == 1
        assert fit.poles[0] == pytest.approx(1.5, abs=1e-14)
        assert fit.residues[0] == pytest.approx(1.0, abs=1e-14)
        assert fit.max_error < 1e-15


class TestSimulationDelta:
    def test_delta_x_decreases_approaching_collapse(self):
        # the fitted singularity distance is monotone over the final stretch
        from gclm.dynamics import RunControls, simulate

        st_ = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        t_c = st_.classify().t_c
        controls = RunControls(t_end=1.2 * t_c, n0=128, n_max=2048)
        series, _ = simulate(st_.field(128), st_.gclm_params(), controls)
        dx = series.delta_x[np.isfinite(series.delta_x)]
        tail = dx[-max(4, dx.size // 5):]
        assert np.all(np.diff(tail) < 0)

    def test_delta_x_tracks_exact_pole_distance(self):
        st_ = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        t1 = 0.8 * st_.classify().t_c
        adv = st_.advance(t1)
        fit = fit_fourier_decay(adv.field(512))
        # circle pole at tan(x/2) = i v: delta = 2 artanh(v) for v < 1
        v = adv.v_c().real
        assert fit.delta == pytest.approx(2.0 * np.arctanh(v), rel=1e-3)
