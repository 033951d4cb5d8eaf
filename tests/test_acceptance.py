"""End-to-end acceptance suite: one test per headline capability.

These are the expensive, full-pipeline checks; the per-module suites cover
the same code with cheap oracles.  Run order is by criterion number, not
by cost.  Budget for the whole file is a few hours on one core.
"""

import numpy as np
import pytest

from gclm import exact
from gclm.collapse import (
    NoCollapseSignalError,
    critical_amplitude,
    fit_collapse,
)
from gclm.dynamics import (
    Rhs,
    RunControls,
    TerminalStatus,
    TimeSeries,
    rk8_step,
    simulate,
)
from gclm.harness import two_mode_field
from gclm.spectral import Domain, GclmParams, SpectralField
from gclm.tracker import aaa_approximate, delta_to_x, fit_fourier_decay


def exact_family_series(state, tau_min, n=90):
    """Collapse diagnostics sampled from a closed-form family.

    max|w| is taken over a grid spanning ten pole distances around the
    collapse point; delta_x is the exact pole distance Re v_c1.
    """
    cl = state.classify()
    rows = []
    for t in cl.t_c - np.geomspace(0.9 * cl.t_c, tau_min, n):
        adv = state.advance(t)
        v1 = adv.values_at(t)[2]
        x = cl.x_c + np.linspace(-10, 10, 4001) * max(v1.real, 1e-6)
        amp = np.max(np.abs(adv.evaluate(x)))
        rows.append(dict(t=t, max_abs_omega=amp, delta_x=v1.real, p_fit=0.0,
                         l2=1.0, b0=1.0, energy=1.0, n_modes=1 << 20))
    return TimeSeries.from_rows(rows, TerminalStatus.COLLAPSE_DETECTED), cl


def test_criterion_01_pde_matches_pole_dynamics_oracle():
    # a=0, sigma=2 on the line: integrate the two-double-pole solution to
    # half its collapse time and compare against the closed form.
    st = exact.SchochetState()
    t_half = 0.5 * st.classify().t_c
    controls = RunControls(t_end=t_half, n0=256)
    series, final = simulate(st.field(256), st.gclm_params(), controls)
    assert series.terminal_status is TerminalStatus.REACHED_T_END
    ref = st.advance(final.t).field(final.field.grid_size)
    err = (np.max(np.abs(final.field.values() - ref.values()))
           / np.max(np.abs(ref.values())))
    assert err <= 1e-6


def test_criterion_02_rescaled_profiles_approach_similarity_limit():
    # (t_c-t)^2 w(xi (t_c-t)) vs the universal profile, closed form only
    st = exact.SchochetState()
    cl = st.classify()
    xi = np.linspace(-6.0, 6.0, 81)
    prof = st.similarity_profile(xi)
    scale = np.max(np.abs(prof))
    for tau in (1e-2, 1e-3, 1e-4):
        resc = tau**2 * st.advance(cl.t_c - tau).evaluate(cl.x_c + xi * tau)
        err = np.max(np.abs(resc - prof)) / scale
        assert err <= 1e-2, f"tau={tau}: sup-relative misfit {err:.3g}"


def test_criterion_02_misfit_is_first_order_in_tau():
    # the misfit of criterion 02 is the finite-time correction to the
    # similarity limit, exactly first order: misfit/tau ~ 20.8 = 0.76/t_c
    st = exact.SchochetState()
    cl = st.classify()
    xi = np.linspace(-6.0, 6.0, 81)
    prof = st.similarity_profile(xi)
    scale = np.max(np.abs(prof))
    ratios = []
    for tau in (1e-2, 1e-3, 1e-4, 1e-5):
        resc = tau**2 * st.advance(cl.t_c - tau).evaluate(cl.x_c + xi * tau)
        ratios.append(np.max(np.abs(resc - prof)) / scale / tau)
    assert max(ratios) <= 1.02 * min(ratios), ratios


def test_criterion_03_periodic_collapse_rates():
    # a=1/2, sigma=1, nu=1, two-mode amplitude 4 on the circle
    params = GclmParams(a=0.5, sigma=1.0, nu=1.0)
    controls = RunControls(t_end=1.4, n0=256, n_max=2**15)
    series, final = simulate(two_mode_field(4.0, 256), params, controls)
    assert series.terminal_status is TerminalStatus.COLLAPSE_DETECTED
    fit = fit_collapse(series)
    assert fit.t_c == pytest.approx(1.15367, abs=0.002)
    assert fit.alpha == pytest.approx(1.0 / 3.0, abs=0.03)
    assert fit.beta == pytest.approx(1.0, abs=0.03)


def test_criterion_04_critical_amplitude_spot_checks():
    cases = [
        (0.5, 1.0, (3.0, 4.0), (3.4, 3.5)),
        (0.0, 0.0, (1.0, 2.0), (1.3, 1.4)),
    ]
    for a, sigma, bracket, expected in cases:
        params = GclmParams(a=a, sigma=sigma, nu=1.0)
        controls = RunControls(t_end=50.0, n0=64, n_max=4096)
        result = critical_amplitude(
            lambda amp: two_mode_field(amp, 64), params, bracket, 0.1,
            controls, validate_bracket=False)
        assert expected[0] <= result.lower, (a, sigma, result.lower)
        assert result.upper <= expected[1], (a, sigma, result.upper)


def test_criterion_05_small_data_solutions_decay():
    for a, sigma in [(0.0, 1.0), (0.5, 1.0), (0.8, 2.0)]:
        n0 = 32 if sigma == 2.0 else 64
        series, _ = simulate(two_mode_field(0.1, n0),
                             GclmParams(a=a, sigma=sigma, nu=1.0),
                             RunControls(t_end=50.0, n0=n0))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        tail = series.max_abs_omega[len(series) // 2:]
        assert np.all(np.diff(tail) <= 0.0), (a, sigma)
        assert series.b0[-1] < series.b0[0], (a, sigma)


def test_criterion_06_pole_family_classifiers():
    cl = exact.OnePairS0State(omega_m1_0=-2.0, v_c0=1.0, nu=1.0).classify()
    assert cl.kind is exact.Kind.COLLAPSE
    assert cl.t_c == pytest.approx(np.log(2.0), abs=1e-10)

    st = exact.DoublePoleState(omega_m2_0=2.0, v_c0=1.0, nu=1.0)
    assert st.classify().kind is exact.Kind.STEADY
    for t in (0.3, 1.0, 4.0):
        assert st.advance(t).v_c == pytest.approx(1.0 + 0.5 * t, abs=1e-12)

    cl = exact.TwoPairDoublePoleLimitState(amplitude=4.0, v_c=1.0,
                                           nu=1.0).classify()
    assert cl.kind is exact.Kind.COLLAPSE
    assert cl.t_c == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-8)


def test_criterion_07_fit_recovery():
    # planted exponential-times-power envelope, exact to 1e-10
    n = 256
    coeffs = np.zeros(n + 1, dtype=complex)
    k = np.arange(1, n)
    coeffs[k] = 5.0 * np.exp(-0.15 * k) * k.astype(float) ** -2.0
    fit = fit_fourier_decay(SpectralField(coeffs, Domain.CIRCLE))
    assert fit.amplitude == pytest.approx(5.0, rel=1e-10)
    assert fit.delta == pytest.approx(0.15, abs=1e-10)
    assert fit.p == pytest.approx(2.0, abs=1e-10)

    # pole distance from grid data of an exact family
    f = exact.OnePairS1State(omega_m1_0=-2.0, v_c0=0.15).field(256)
    fit = fit_fourier_decay(f)
    assert delta_to_x(fit.delta, Domain.LINE) == pytest.approx(0.15, rel=0.01)
    assert abs(fit.p) < 0.05

    # rational approximation recovers a planted conjugate pole pair
    v_c = 0.3 + 0.1j
    x = np.linspace(-np.pi, np.pi, 801)
    vals = np.real(-2.0 / (x - 1j * v_c) + np.conj(-2.0) / (x + 1j * np.conj(v_c)))
    aaa = aaa_approximate(x, vals)
    poles = aaa.poles_near_axis()
    lower = poles[poles.imag < 0]
    assert lower.size == 1
    assert lower[0] == pytest.approx(-1j * np.conj(v_c), abs=1e-6)


def test_criterion_08_degenerate_collapse_rates():
    # tangency: amplitude ~ tau^-2 and pole distance ~ tau^2
    st = exact.TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                              v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
    series, cl = exact_family_series(st, tau_min=1e-4)
    fit = fit_collapse(series)
    assert fit.alpha == pytest.approx(2.0, abs=0.1)
    assert fit.beta == pytest.approx(2.0, abs=0.1)

    # perturbing the residue off the tangency: generic rates or no collapse
    st = exact.TwoPairS1State(omega_m1_1_0=-2.1, omega_m1_2_0=2.1,
                              v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
    assert st.classify().kind is exact.Kind.COLLAPSE
    series, cl = exact_family_series(st, tau_min=1e-6 * cl.t_c)
    try:
        fit = fit_collapse(series)
        assert fit.alpha == pytest.approx(1.0, abs=0.05)
        assert fit.beta == pytest.approx(1.0, abs=0.05)
    except NoCollapseSignalError:
        pass

    st = exact.TwoPairS1State(omega_m1_1_0=-1.9, omega_m1_2_0=1.9,
                              v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
    assert st.classify().kind is exact.Kind.GLOBAL


def test_criterion_09_time_stepper_is_eighth_order():
    # fixed-step self-convergence on a smooth, advection-dominated circle
    # run, whose errors span 1e-3 (m = 6; m = 4 is unstable) to 1e-11,
    # above round-off
    params = GclmParams(a=4.0, sigma=1.0, nu=0.02)
    n = 16
    f0 = two_mode_field(2.0, n)
    rhs = Rhs(Domain.CIRCLE, params, n)
    t_end = 0.4

    def integrate(m):
        c, f = f0.coeffs.copy(), None
        for _ in range(m):
            c, f, _ = rk8_step(c, t_end / m, rhs, f0=f)
        return c

    ref = integrate(6000)
    steps = np.array([6, 8, 10, 12, 15, 19, 24, 30, 38, 48, 60])
    errs = np.array([np.max(np.abs(integrate(m) - ref)) for m in steps])
    assert np.min(errs) > 1e-12
    dts = t_end / steps.astype(float)
    assert dts[0] / dts[-1] == pytest.approx(10.0)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 7.5 <= slope <= 8.5, f"measured order {slope:.3f}"


def test_criterion_10_conservation_and_structure():
    # circle: the spatial mean is exactly conserved by the scheme
    f0 = two_mode_field(2.0, 128)
    _, state = simulate(f0, GclmParams(a=0.5, sigma=1.0, nu=1.0),
                        RunControls(t_end=0.5, n0=128))
    assert abs(state.field.coeffs[0].real - f0.coeffs[0].real) <= 1e-12

    # two-pair family: total residue conserved exactly
    st = exact.TwoPairS1State()
    for t in (0.05, 0.15, 0.29):
        om1, om2, _, _ = st.values_at(t)
        assert om1 + om2 == st.c0

    # double-pole family: the implicit invariant is affine in time
    st = exact.DoublePoleState(omega_m2_0=4.0)
    t_c = st.classify().t_c
    g0 = st.implicit_invariant()
    slope = st._scaled_c1() * st.nu
    for t in np.array([0.1, 0.35, 0.7]) * t_c:
        g = st.advance(t).implicit_invariant()
        assert abs(g - (g0 + slope * t)) <= 1e-8
