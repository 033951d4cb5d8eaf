"""Tests for collapse-rate fitting and critical-amplitude bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclm import collapse as collapse_mod
from gclm.collapse import (
    VERDICT,
    BadBracketError,
    NoCollapseSignalError,
    UndecidedProbeError,
    critical_amplitude,
    fit_collapse,
)
from gclm.dynamics import RunControls, SimState, TerminalStatus, TimeSeries
from gclm.harness import two_mode_field
from gclm.spectral import GclmParams


def power_law_series(t_c=1.5, beta=1.0, alpha=1.0, amp=2.0, dx0=0.3,
                     n=120, tau_min=1e-7, status=TerminalStatus.COLLAPSE_DETECTED):
    """Synthetic diagnostics with exact power-law collapse rates."""
    rows = []
    for t in t_c - np.geomspace(0.95 * t_c, tau_min, n):
        tau = t_c - t
        rows.append(dict(t=t, max_abs_omega=amp * tau**-beta,
                         delta_x=dx0 * tau**alpha, p_fit=0.0, l2=1.0, b0=1.0,
                         energy=1.0, n_modes=1 << 20))
    return TimeSeries.from_rows(rows, status)


def flat_series(amp=1.0, n=40, status=TerminalStatus.REACHED_T_END,
                decreasing=False):
    rows = []
    for i, t in enumerate(np.linspace(0.0, 10.0, n)):
        a = amp * (0.9 ** i if decreasing else 1.0)
        rows.append(dict(t=t, max_abs_omega=a, delta_x=np.nan, p_fit=np.nan,
                         l2=a, b0=a, energy=a * a, n_modes=128))
    return TimeSeries.from_rows(rows, status)


class TestFitCollapse:
    def test_recovers_exact_power_law(self):
        fit = fit_collapse(power_law_series())
        assert fit.t_c == pytest.approx(1.5, abs=1e-6)
        assert fit.beta == pytest.approx(1.0, abs=1e-6)
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-5)

    @given(st.floats(min_value=0.5, max_value=2.5),
           st.floats(min_value=0.2, max_value=2.0),
           st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_recovery_over_parameter_ranges(self, beta, alpha, t_c):
        # sample deep enough for five decades of amplitude growth while
        # keeping t_c - t representable in double precision
        tau_min = max(0.95 * t_c * 10.0 ** (-5.0 / beta), 1e-11 * t_c)
        fit = fit_collapse(power_law_series(t_c=t_c, beta=beta, alpha=alpha,
                                            tau_min=tau_min))
        assert fit.t_c == pytest.approx(t_c, rel=1e-6)
        assert fit.beta == pytest.approx(beta, abs=1e-5)
        assert fit.alpha == pytest.approx(alpha, abs=1e-5)

    def test_decimating_samples_changes_little(self):
        full = power_law_series(n=240)
        thin = TimeSeries.from_rows(
            [{k: getattr(full, k)[i]
              for k in ("t", "max_abs_omega", "delta_x", "p_fit", "l2", "b0",
                        "energy", "n_modes")} for i in range(0, 240, 3)],
            full.terminal_status)
        f_full, f_thin = fit_collapse(full), fit_collapse(thin)
        assert f_thin.t_c == pytest.approx(f_full.t_c, rel=1e-3)
        assert f_thin.beta == pytest.approx(f_full.beta, abs=1e-3)

    def test_no_growth_raises(self):
        with pytest.raises(NoCollapseSignalError):
            fit_collapse(flat_series())

    def test_insufficient_growth_raises(self):
        # three decades of growth are not enough to trust a rate fit
        series = power_law_series(tau_min=1e-3 * 0.95 * 1.5)
        with pytest.raises(NoCollapseSignalError):
            fit_collapse(series)

    def test_t_c_matches_least_squares(self):
        # the benchmark's circle run (criterion 03 capped at N = 512): the
        # same least-squares problem, bounds and seed given to scipy's
        # trust-region solver
        from gclm.dynamics import simulate
        from scipy.optimize import least_squares

        series, _ = simulate(two_mode_field(4.0, 64),
                             GclmParams(a=0.5, sigma=1.0, nu=1.0),
                             RunControls(t_end=1.4, n0=64, n_max=512))
        idx = collapse_mod._fit_window(series)
        t, y = series.t[idx], np.log(series.max_abs_omega[idx])
        amp, t_final = series.max_abs_omega, series.t[-1]
        half = np.nonzero(amp >= 0.5 * amp[-1])[0][0]
        t_c0 = t_final + t_final - series.t[half]

        def resid(p):
            return p[0] - p[2] * np.log(p[1] - t) - y

        def jac(p):
            tau = p[1] - t
            return np.column_stack([np.ones_like(tau), -p[2] / tau,
                                    -np.log(tau)])

        ref = least_squares(resid, [y[-1] + np.log(t_c0 - t[-1]), t_c0, 1.0],
                            jac=jac, bounds=([-np.inf, t_final * (1 + 1e-12),
                                              0.0], np.inf),
                            xtol=2.3e-16, ftol=2.3e-16, gtol=2.3e-16,
                            max_nfev=2000)
        assert fit_collapse(series).t_c == pytest.approx(ref.x[1], rel=1e-12)

    def test_fitted_rates_for_degenerate_two_pair_family(self):
        # K = -2 tangency: amplitude ~ tau^-2 and distance ~ tau^2
        from gclm import exact

        st_ = exact.TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                                   v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        cl = st_.classify()
        rows = []
        for t in cl.t_c - np.geomspace(0.9 * cl.t_c, 1e-4, 90):
            adv = st_.advance(t)
            v1 = adv.values_at(t)[2]
            x = cl.x_c + np.linspace(-10, 10, 4001) * max(v1.real, 1e-6)
            amp = np.max(np.abs(adv.evaluate(x)))
            rows.append(dict(t=t, max_abs_omega=amp, delta_x=v1.real,
                             p_fit=0.0, l2=1.0, b0=1.0, energy=1.0,
                             n_modes=1 << 20))
        fit = fit_collapse(TimeSeries.from_rows(
            rows, TerminalStatus.COLLAPSE_DETECTED))
        assert fit.t_c == pytest.approx(cl.t_c, abs=1e-3)
        assert fit.beta == pytest.approx(2.0, abs=0.05)
        assert fit.alpha == pytest.approx(2.0, abs=0.05)


class TestBlowUpVerdict:
    def test_collapse_status_is_blow_up(self):
        assert VERDICT[power_law_series().terminal_status] is True

    def test_decaying_run_is_not(self):
        assert VERDICT[flat_series(decreasing=True).terminal_status] is False

    def test_every_status_has_one_verdict(self):
        assert set(VERDICT) == set(TerminalStatus)
        # a capped run and a failed step decide nothing, however they grew
        assert VERDICT[TerminalStatus.RESOLUTION_CAP_HIT] is None
        assert VERDICT[TerminalStatus.STEP_FAILED] is None


class TestCriticalAmplitude:
    def patch_probe(self, monkeypatch, threshold, undecided=None):
        """Replace the PDE run by a step-function oracle at ``threshold``;
        ``undecided = (amplitude, status)`` ends that probe with status."""
        calls, self.runs = [], []

        def fake_simulate(initial, params, controls):
            self.runs.append(1)
            if len(self.runs) > 200:
                raise AssertionError("bisection did not stop")
            a = calls.pop()
            if undecided is not None and a == undecided[0]:
                return (flat_series(amp=a, status=undecided[1]),
                        SimState(None, 1.0, stop_reason="why not"))
            if a >= threshold:
                return power_law_series(), SimState(None, 1.0,
                                                    stop_reason="up")
            return (flat_series(amp=a, decreasing=True),
                    SimState(None, 10.0, stop_reason="down"))

        monkeypatch.setattr(collapse_mod, "simulate", fake_simulate)
        return calls

    def make_initial_factory(self, calls):
        def make_initial(a):
            calls.append(a)
            return None
        return make_initial

    def test_bisection_brackets_the_threshold(self, monkeypatch):
        calls = self.patch_probe(monkeypatch, 2.0)
        result = critical_amplitude(self.make_initial_factory(calls),
                                    GclmParams(a=0.0, sigma=1.0, nu=1.0),
                                    bracket=(1.0, 3.0), tol=0.01,
                                    controls=RunControls())
        assert result.lower < 2.0 <= result.upper
        assert result.upper - result.lower <= 0.01
        # each probe keeps the stop reason of its run
        assert all(p.reason == ("up" if p.blew_up else "down")
                   for p in result.probes)

    def test_probe_count_is_logarithmic(self, monkeypatch):
        calls = self.patch_probe(monkeypatch, 2.0)
        result = critical_amplitude(self.make_initial_factory(calls),
                                    GclmParams(a=0.0, sigma=1.0, nu=1.0),
                                    bracket=(1.0, 3.0), tol=0.01,
                                    controls=RunControls())
        assert result.n_probes <= int(np.ceil(np.log2(2.0 / 0.01))) + 1

    def test_bad_bracket_raises(self, monkeypatch):
        calls = self.patch_probe(monkeypatch, 10.0)  # both endpoints decay
        with pytest.raises(BadBracketError):
            critical_amplitude(self.make_initial_factory(calls),
                               GclmParams(a=0.0, sigma=1.0, nu=1.0),
                               bracket=(1.0, 3.0), tol=0.1,
                               controls=RunControls())

    def test_skipping_validation_runs_midpoints_only(self, monkeypatch):
        calls = self.patch_probe(monkeypatch, 2.0)
        result = critical_amplitude(self.make_initial_factory(calls),
                                    GclmParams(a=0.0, sigma=1.0, nu=1.0),
                                    bracket=(1.0, 3.0), tol=0.5,
                                    controls=RunControls(),
                                    validate_bracket=False)
        assert all(1.0 < p.amplitude < 3.0 for p in result.probes)
        assert result.upper - result.lower <= 0.5

    @pytest.mark.parametrize("status", [TerminalStatus.RESOLUTION_CAP_HIT,
                                        TerminalStatus.STEP_FAILED],
                             ids=["cap", "step_failed"])
    def test_undecided_probe_stops_the_bisection(self, monkeypatch, status):
        calls = self.patch_probe(monkeypatch, 2.0, undecided=(2.0, status))
        with pytest.raises(UndecidedProbeError,
                           match=f"amplitude 2.0 ended {status.value}: "
                                 f"why not"):
            critical_amplitude(self.make_initial_factory(calls),
                               GclmParams(a=0.0, sigma=1.0, nu=1.0),
                               bracket=(1.0, 3.0), tol=0.01,
                               controls=RunControls(),
                               validate_bracket=False)
        assert len(self.runs) == 1

    @pytest.mark.parametrize("endpoint", [1.0, 3.0], ids=["lower", "upper"])
    def test_undecided_endpoint_is_not_a_bad_bracket(self, monkeypatch,
                                                     endpoint):
        calls = self.patch_probe(
            monkeypatch, 2.0,
            undecided=(endpoint, TerminalStatus.RESOLUTION_CAP_HIT))
        with pytest.raises(UndecidedProbeError,
                           match=f"amplitude {endpoint!r} ended") as info:
            critical_amplitude(self.make_initial_factory(calls),
                               GclmParams(a=0.0, sigma=1.0, nu=1.0),
                               bracket=(1.0, 3.0), tol=0.1,
                               controls=RunControls())
        assert not isinstance(info.value, BadBracketError)
        assert len(self.runs) == (1 if endpoint == 1.0 else 2)

    def test_capped_pde_probe_is_undecided(self, monkeypatch):
        # two-mode data held at N = 64: A = 3.5 collapses (the bracket at
        # n_max = 4096 is (3.4375, 3.5)), but its tail leaves the trust band
        # first; counting each capped probe as no blow-up would give the
        # bracket (3.9375, 4.0)
        runs = []

        def counted(*args):
            runs.append(1)
            return simulate(*args)

        simulate = collapse_mod.simulate
        monkeypatch.setattr(collapse_mod, "simulate", counted)
        with pytest.raises(UndecidedProbeError,
                           match=r"amplitude 3\.5 ended ResolutionCapHit: "
                                 r"tail/peak = .* at N = 64"):
            critical_amplitude(lambda amp: two_mode_field(amp, 64),
                               GclmParams(a=0.5, sigma=1.0, nu=1.0),
                               bracket=(3.0, 4.0), tol=0.1,
                               controls=RunControls(t_end=50.0, n0=64,
                                                    n_max=64),
                               validate_bracket=False)
        assert len(runs) == 1

    @pytest.mark.parametrize("tol", [0.0, -0.1, np.nan],
                             ids=["zero", "negative", "nan"])
    def test_tol_must_be_positive_and_finite(self, monkeypatch, tol):
        # raised before any probe: zero or negative would bisect forever,
        # NaN would return the unbisected bracket
        calls = self.patch_probe(monkeypatch, 2.0)
        with pytest.raises(ValueError, match="tol"):
            critical_amplitude(self.make_initial_factory(calls),
                               GclmParams(a=0.0, sigma=1.0, nu=1.0),
                               bracket=(1.0, 3.0), tol=tol,
                               controls=RunControls())
        assert calls == []

    def test_invalid_bracket_order_raises(self):
        with pytest.raises(ValueError):
            critical_amplitude(lambda a: None,
                               GclmParams(a=0.0, sigma=1.0, nu=1.0),
                               bracket=(3.0, 1.0), tol=0.1,
                               controls=RunControls())
