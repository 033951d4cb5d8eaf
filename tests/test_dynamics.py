"""Tests for the right-hand side, the RK8 stepper, and the adaptive driver.

The main oracle is the library of exact pole solutions: their closed-form
time derivatives (by central differences in t) must match the discretized
right-hand side, and full runs must track them at the stated tolerances.
"""

import io

import numpy as np
import pytest

from gclm import exact
from gclm.dynamics import (
    RK8_A,
    RK8_B,
    RK8_C,
    Rhs,
    RunControls,
    TerminalStatus,
    TimeSeries,
    adaptive_dt,
    rk8_step,
    simulate,
)
from gclm.harness import two_mode_field
from gclm.spectral import Domain, GclmParams, SpectralField, operators


def fd_time_derivative(state, t0, n, h=1e-6):
    lo = state.advance(t0 - h).field(n).coeffs
    hi = state.advance(t0 + h).field(n).coeffs
    return (hi - lo) / (2.0 * h)


def random_coeffs(n, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    c[[0, -1]] = c[[0, -1]].real
    return c


def rhs_matches_family(state, t0, n, tol=1e-6):
    adv = state.advance(t0)
    f = adv.field(n)
    rhs = Rhs(state.domain, state.gclm_params(), n)
    got = rhs(f.coeffs)
    want = fd_time_derivative(state, t0, n)
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / scale < tol


def lawson_span():
    """Largest c_j - c_i over the nonzero a_ij of the tableau."""
    i, j = np.nonzero(RK8_A)
    return float(np.max(RK8_C[j] - RK8_C[i]))


class TestTableau:
    def test_row_sums_match_nodes(self):
        assert np.allclose(RK8_A.sum(axis=1), RK8_C, atol=1e-15)

    def test_weights_sum_to_one(self):
        assert np.sum(RK8_B) == pytest.approx(1.0, abs=1e-15)

    def test_step_is_exact_for_zero_rhs(self):
        rhs = lambda c: np.zeros_like(c)
        c0 = np.arange(16, dtype=complex)
        assert np.array_equal(rk8_step(c0, 0.5, rhs), c0)

    def test_step_solves_linear_decay_to_order(self):
        # dc/dt = -c: one step of size h has error O(h^9)
        rhs = lambda c: -c
        c0 = np.ones(8, dtype=complex)
        for h in (0.5, 0.25):
            err = abs(rk8_step(c0, h, rhs)[0] - np.exp(-h))
            assert err < 2.0 * h**9


class TestLawsonStep:
    def test_span_is_the_gap_between_the_sqrt21_nodes(self):
        assert lawson_span() == pytest.approx(np.sqrt(21.0) / 7.0, rel=1e-15)

    def test_linear_part_is_exact(self):
        # rhs = -L c: one Lawson step is e^{-hL} c0, even at the largest
        # step the growth bound allows
        lin = operators(16, Domain.CIRCLE).kabs ** 2
        h = 1.0 / (lawson_span() * np.max(lin))
        c0 = random_coeffs(16)
        got = rk8_step(c0, h, lambda c: -lin * c, lin)
        assert np.max(np.abs(got - np.exp(-h * lin) * c0)) <= 1e-14

    def test_zero_field_stays_zero_at_any_step(self):
        # exp(-dt L) underflows to 0 here; the step must not form 0/0
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=0.5, sigma=2.0, nu=1.0), 64)
        out = rk8_step(np.zeros(65, dtype=complex), 50.0, rhs, rhs.diss)
        assert np.array_equal(out, np.zeros(65))

    def test_self_convergence_is_eighth_order(self):
        # criterion 09's run, Lawson-stepped; m >= 8 stays above the
        # round-off floor (about 2e-13) of the error against m = 2000
        params = GclmParams(a=0.5, sigma=1.0, nu=0.2)
        f0 = two_mode_field(1.0, 16)
        rhs = Rhs(Domain.CIRCLE, params, 16)
        t_end = 2.0

        def integrate(m):
            c = f0.coeffs.copy()
            for _ in range(m):
                c = rk8_step(c, t_end / m, rhs, rhs.diss)
            return c

        ref = integrate(2000)
        steps = np.array([8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24])
        errs = np.array([np.max(np.abs(integrate(m) - ref)) for m in steps])
        assert np.min(errs) > 1e-12
        dts = t_end / steps.astype(float)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 7.5 <= slope <= 8.5, f"measured order {slope:.3f}"

    def test_simulate_agrees_with_fixed_step_explicit_run(self):
        params = GclmParams(a=0.5, sigma=1.0, nu=1.0)
        f0 = two_mode_field(0.1, 64)
        _, state = simulate(f0, params, RunControls(t_end=1.0, n0=64))
        assert state.field.grid_size == 64 and state.t == pytest.approx(1.0)
        rhs = Rhs(Domain.CIRCLE, params, 64)
        c = f0.coeffs.copy()
        for _ in range(500):
            c = rk8_step(c, 1.0 / 500, rhs)
        err = np.max(np.abs(state.field.coeffs - c)) / np.max(np.abs(c))
        assert err <= 1e-10


class TestRhsAgainstExactFamilies:
    def test_zero_field_has_zero_rhs(self):
        for domain, sigma in ((Domain.CIRCLE, 0.0), (Domain.LINE, 1.0)):
            rhs = Rhs(domain, GclmParams(a=0.5 if domain is Domain.CIRCLE
                                         else 0.0, sigma=sigma, nu=1.0), 64)
            out = rhs(np.zeros(65, dtype=complex))
            assert np.max(np.abs(out)) == 0.0

    def test_schochet(self):
        st = exact.SchochetState()
        assert rhs_matches_family(st, 0.3 * st.collapse_time(), 256)

    def test_double_pole_advection(self):
        # exercises the a = 1/2 advection term and sigma = 1 on the line
        st = exact.DoublePoleState(omega_m2_0=4.0)
        assert rhs_matches_family(st, 0.1, 256)

    def test_one_pair_sigma_one(self):
        st = exact.OnePairS1State(omega_m1_0=-2.0 + 0.5j, v_c0=1.0)
        assert rhs_matches_family(st, 0.2, 256)

    def test_two_pair_sigma_one(self):
        st = exact.TwoPairS1State(omega_m1_1_0=-2.1, omega_m1_2_0=2.1,
                                  v_c1_0=0.3, v_c2_0=0.9)
        assert rhs_matches_family(st, 0.05, 512)

    def test_one_pair_sigma_zero(self):
        st = exact.OnePairS0State(omega_m1_0=-2.0, v_c0=1.0)
        assert rhs_matches_family(st, 0.2, 256)

    def test_periodic_pole_on_circle(self):
        st = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0)
        assert rhs_matches_family(st, 0.3, 256)

    def test_rhs_is_resolution_independent(self):
        # band-limited data: coefficients of the rhs agree across grids
        st = exact.DoublePoleState(omega_m2_0=4.0).advance(0.1)
        p = st.gclm_params()
        c_lo = Rhs(Domain.LINE, p, 256)(st.field(256).coeffs)
        c_hi = Rhs(Domain.LINE, p, 512)(st.field(512).coeffs)
        k = np.arange(-128, 128)
        assert np.max(np.abs(c_lo[k] - c_hi[k])) < 1e-10


class TestAdaptiveDt:
    def test_stretching_limit_only(self):
        # a = nu = 0 and max|H w| = 2: dt = cfl / 2
        f = SpectralField.from_function(lambda x: 2.0 * np.sin(x), 64)
        params = GclmParams(a=0.0, sigma=0.0, nu=0.0)
        dt = adaptive_dt(f, params, 1.0 / 16.0, np.inf)
        assert dt == pytest.approx(1.0 / 32.0, rel=1e-12)

    def test_lawson_growth_limit_dominates(self):
        # a = nu = 1, sigma = 2, N = 64, max|u| = max|Hw| = 1: the stage
        # growth bound 1 / (span * 64^2), outside cfl, is below the
        # advection limit cfl * pi/64
        f = SpectralField.from_function(np.cos, 64)
        params = GclmParams(a=1.0, sigma=2.0, nu=1.0)
        dt = adaptive_dt(f, params, 1.0 / 32.0, np.inf)
        assert dt == pytest.approx(1.0 / (lawson_span() * 64.0**2), rel=1e-12)

    def test_zero_field_returns_dt_max(self):
        f = SpectralField(np.zeros(65, dtype=complex), Domain.CIRCLE)
        params = GclmParams(a=0.5, sigma=1.0, nu=1.0)
        assert adaptive_dt(f, params, 1.0 / 32.0, 2.5) == 2.5


class TestTimeSeries:
    def make_series(self):
        ts = TimeSeries()
        for i, t in enumerate(np.linspace(0.0, 1.0, 9)):
            ts.append(t=t, max_abs_omega=1.0 + i, delta_x=0.5 / (1 + i),
                      p_fit=2.0, l2=1.0, linf=1.0 + i, b0=3.0, energy=0.25,
                      n_modes=256)
        ts.terminal_status = TerminalStatus.REACHED_T_END
        return ts

    def test_csv_round_trip_is_byte_identical(self):
        ts = self.make_series()
        buf = io.StringIO()
        ts.to_csv(buf)
        text = buf.getvalue()
        again = TimeSeries.from_csv(io.StringIO(text))
        assert again.terminal_status is TerminalStatus.REACHED_T_END
        buf2 = io.StringIO()
        again.to_csv(buf2)
        assert buf2.getvalue() == text

    def test_columns_are_arrays(self):
        ts = self.make_series()
        assert np.allclose(ts.t, np.linspace(0.0, 1.0, 9))
        assert ts.n_modes[0] == 256


class TestSimulate:
    def test_tracks_periodic_pole_to_half_collapse_time(self):
        st = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        t1 = 0.5 * st.classify().t_c
        controls = RunControls(t_end=t1, n0=128, cfl=1.0 / 32.0)
        series, state = simulate(st.field(128), st.gclm_params(), controls)
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        exact_vals = st.advance(t1).field(state.field.grid_size).values()
        err = np.max(np.abs(state.field.values() - exact_vals))
        assert err < 1e-6 * np.max(np.abs(exact_vals))

    def test_tracks_global_one_pair_to_t_one(self):
        st = exact.OnePairS0State(omega_m1_0=-0.5, v_c0=1.0, nu=1.0)
        controls = RunControls(t_end=1.0, n0=128, cfl=1.0 / 32.0)
        series, state = simulate(st.field(128), st.gclm_params(), controls)
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        exact_vals = st.advance(1.0).field(state.field.grid_size).values()
        err = np.max(np.abs(state.field.values() - exact_vals))
        assert err < 1e-6 * np.max(np.abs(exact_vals))

    def test_tracks_advected_double_pole(self):
        st = exact.DoublePoleState(omega_m2_0=4.0)
        t1 = 0.25 * st.classify().t_c
        controls = RunControls(t_end=t1, n0=128, cfl=1.0 / 32.0)
        series, state = simulate(st.field(128), st.gclm_params(), controls)
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        exact_vals = st.advance(t1).field(state.field.grid_size).values()
        err = np.max(np.abs(state.field.values() - exact_vals))
        assert err < 1e-6 * np.max(np.abs(exact_vals))

    def test_mean_is_conserved_on_circle(self):
        f = SpectralField.from_function(
            lambda x: np.sin(x) + 0.5 * np.sin(2.0 * x), 128)
        params = GclmParams(a=0.5, sigma=1.0, nu=1.0)
        controls = RunControls(t_end=0.5, n0=128)
        _, state = simulate(f, params, controls)
        assert abs(state.field.coeffs[0].real - f.coeffs[0].real) < 1e-12

    def test_cfl_halving_self_convergence(self):
        st = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        p = st.gclm_params()
        finals = []
        for cfl in (1.0 / 32.0, 1.0 / 64.0):
            controls = RunControls(t_end=0.3, n0=128, cfl=cfl)
            _, state = simulate(st.field(128), p, controls)
            finals.append(np.max(np.abs(state.field.values())))
        assert abs(finals[1] - finals[0]) < 1e-8 * finals[0]

    def test_collapse_is_detected(self):
        st = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        t_c = st.classify().t_c
        controls = RunControls(t_end=1.2 * t_c, n0=128, n_max=2048)
        series, state = simulate(st.field(128), st.gclm_params(), controls)
        assert series.terminal_status is TerminalStatus.COLLAPSE_DETECTED
        assert state.t < t_c
        assert state.t > 0.95 * t_c
        assert state.n_refinements >= 1

    def test_under_resolved_start_triggers_refinement(self):
        # v_c0 = 0.05: the initial spectrum needs more than 64 modes
        st = exact.OnePairS1State(omega_m1_0=-0.5, v_c0=0.05, nu=1.0)
        controls = RunControls(t_end=0.01, n0=64, n_max=4096)
        _, state = simulate(st.field(64), st.gclm_params(), controls)
        assert state.n_refinements >= 1
        assert state.field.grid_size > 64

    def test_sample_dt_controls_cadence(self):
        st = exact.OnePairS0State(omega_m1_0=-0.5, v_c0=1.0, nu=1.0)
        controls = RunControls(t_end=0.5, n0=64, sample_dt=0.1)
        series, _ = simulate(st.field(64), st.gclm_params(), controls)
        assert np.allclose(np.diff(series.t), 0.1, atol=1e-10)

    def test_decaying_solution_reaches_t_end(self):
        f = SpectralField.from_function(
            lambda x: -0.1 * (np.sin(x) + 0.5 * np.sin(2 * x)), 64)
        params = GclmParams(a=0.0, sigma=1.0, nu=1.0)
        controls = RunControls(t_end=5.0, n0=64)
        series, state = simulate(f, params, controls)
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert series.max_abs_omega[-1] < series.max_abs_omega[0]
