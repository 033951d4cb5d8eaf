"""Tests for the spectral decay fit, the delta map, and the rational fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import AAA

from gclm import exact
from gclm.spectral import Domain, SpectralField
from gclm.tracker import (
    AAA_CLEAN_UP_TOL,
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


class TestDoubletCleanUp:
    """aaa_approximate runs scipy's clean-up only when scipy's own doublet
    test finds a doublet; either way the fit is scipy's cleaned one."""

    x = np.linspace(-1.0, 1.0, 256)

    def scipys_fit(self, y):
        return AAA(self.x, y, rtol=AAA_TOL, max_terms=60, clean_up=True,
                   clean_up_tol=AAA_CLEAN_UP_TOL)

    @staticmethod
    def assert_same(fit, ref):
        assert np.array_equal(fit.support_points, ref.support_points)
        assert np.array_equal(fit.poles, ref.poles())
        assert np.array_equal(fit.residues, ref.residues())

    def test_clean_input_matches_scipy(self):
        y = np.tanh(20.0 * self.x)
        self.assert_same(aaa_approximate(self.x, y, max_degree=60),
                         self.scipys_fit(y))

    # noise at the tolerance: the fit runs to its cap, fitting the noise
    @pytest.mark.filterwarnings("ignore:AAA failed to converge")
    def test_noisy_input_removes_scipys_doublet(self):
        noise = np.random.default_rng(4).standard_normal(self.x.size)
        y = np.tanh(20.0 * self.x) + 1e-12 * noise
        with pytest.warns(RuntimeWarning, match="1 Froissart doublets"):
            fit = aaa_approximate(self.x, y, max_degree=60)
        with pytest.warns(RuntimeWarning, match="1 Froissart doublets"):
            ref = self.scipys_fit(y)
        assert fit.non_converged
        self.assert_same(fit, ref)


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
