"""Tests for the exact pole-dynamics solution families.

Oracle strategy: closed-form trajectories are cross-checked against direct
numerical integration of the pole ODEs, grid quadrature of the fields, and
hand-derived special values (frozen below with their derivations).
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from gclm import exact
from gclm.exact import (
    DoublePoleState,
    HigherOrderUnknownError,
    Kind,
    NotCollapsingError,
    OnePairS0State,
    OnePairS1State,
    PastCollapseError,
    PeriodicPoleState,
    SchochetState,
    TwoPairDoublePoleLimitState,
    TwoPairS1State,
    family_from_name,
    schochet_k,
)
from gclm.spectral import Domain, norms


def loop_continuous_sqrt(path):
    """Reference: flip the whole tail at each branch jump, one at a time."""
    s = np.sqrt(path.astype(complex))
    for i in range(1, s.size):
        if abs(s[i] - s[i - 1]) > abs(s[i] + s[i - 1]):
            s[i:] = -s[i:]
    return s


class TestSchochet:
    def test_k_constants(self):
        assert schochet_k(1) == pytest.approx(24.0 * (3.0 + np.sqrt(6.0)))
        assert schochet_k(-1) == pytest.approx(24.0 * (3.0 - np.sqrt(6.0)))

    def test_collapse_time_default_data(self):
        # t_c = -(12/5) x1 x2 / (K nu); x1 x2 = (-i)(-2i) = -2, so
        # t_c = (24/5)/K = (3 - sqrt 6)/15 for K = 24(3 + sqrt 6)
        st = SchochetState()
        assert st.collapse_time() == pytest.approx((3.0 - np.sqrt(6.0)) / 15.0,
                                                   abs=1e-15)

    def test_pole_sum_is_conserved(self):
        st = SchochetState()
        tc = st.collapse_time()
        for t in (0.0, 0.3 * tc, 0.9 * tc):
            x1, x2 = st.positions(t)
            assert x1 + x2 == pytest.approx(-3j, abs=1e-12)

    def test_pole_gap_squared_is_linear_in_time(self):
        st = SchochetState()
        tc = st.collapse_time()
        ts = np.linspace(0.0, 0.95 * tc, 7)
        gaps = []
        for t in ts:
            x1, x2 = st.positions(t)
            gaps.append((x1 - x2) ** 2)
        slopes = np.diff(gaps) / np.diff(ts)
        assert np.allclose(slopes, -5.0 / 3.0 * st.k_const * st.nu,
                           atol=1e-8)

    def test_collapse_happens_at_the_origin(self):
        st = SchochetState()
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.x_c == pytest.approx(0.0, abs=1e-12)
        assert cl.alpha == 1.0 and cl.beta == 2.0
        x1, x2 = st.positions(cl.t_c)
        assert min(abs(x1.imag), abs(x2.imag)) < 1e-12

    def test_field_is_odd_and_mean_free(self):
        st = SchochetState()
        x = np.linspace(-8.0, 8.0, 101)
        assert np.allclose(st.evaluate(-x), -st.evaluate(x), atol=1e-12)
        f = st.field(256)
        assert abs(f.coeffs[0]) < 1e-12

    def test_similarity_profile_matches_rescaled_field(self):
        # (t_c - t)^2 w(x_c + xi (t_c - t)) -> f(xi) as t -> t_c
        st = SchochetState()
        cl = st.classify()
        xi = np.linspace(-6.0, 6.0, 81)
        prof = st.similarity_profile(xi)
        tau = 1e-6
        resc = tau**2 * st.advance(cl.t_c - tau).evaluate(cl.x_c + xi * tau)
        assert np.max(np.abs(resc - prof)) < 1e-4 * np.max(np.abs(prof))

    @pytest.mark.parametrize("x1_0, x2_0", [
        (-1j, -2j),  # R(t) on the negative real axis (the branch cut)
        (1 - 1j, -1 - 1j),  # R(t) real, through 0 onto the cut
        (0.3 - 1j, -0.2 - 1.5j),  # Im R < 0
        (-0.7 - 2j, 0.4 - 0.5j)])  # Im R > 0
    @pytest.mark.parametrize("sign", [1, -1])
    def test_poles_follow_the_root_continued_from_t0(self, x1_0, x2_0, sign):
        # x1 - x2 = sqrt(R(t)) continued along 4,096 samples of R on [0, t]
        st = SchochetState(x1_0=x1_0, x2_0=x2_0, sign=sign)
        slope = -5.0 / 3.0 * st.k_const * st.nu
        for t in (0.0, 1e-3, 0.1, 1.0, 7.3):
            ts = np.linspace(0.0, t, 4096)
            s = loop_continuous_sqrt((x1_0 - x2_0) ** 2 + slope * ts)[-1]
            x1, x2 = st.positions(t)
            assert x1 - x2 == pytest.approx(s, rel=1e-14)
            assert st.amplitude(t) == pytest.approx(
                -st.k_const * st.nu * 1j / s, rel=1e-14)

    def test_advance_past_collapse_raises(self):
        st = SchochetState()
        with pytest.raises(PastCollapseError):
            st.advance(st.collapse_time())


class TestDoublePole:
    def test_default_data_is_steady_ratio(self):
        # omega_m2 / v_c = 2 nu is the equilibrium of the amplitude ratio
        st = DoublePoleState()
        assert st.classify().kind is Kind.STEADY
        adv = st.advance(3.0)
        assert adv.v_c == pytest.approx(1.0 + 0.5 * 3.0, abs=1e-14)
        assert adv.omega_m2 == pytest.approx(2.0 * adv.v_c, abs=1e-13)

    def test_subcritical_ratio_is_global(self):
        assert DoublePoleState(omega_m2_0=1.0).classify().kind is Kind.GLOBAL

    def test_collapse_classification(self):
        st = DoublePoleState(omega_m2_0=4.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.alpha == pytest.approx(1.0 / 3.0)
        assert cl.beta == 1.0
        assert cl.x_c == 0.0

    def test_collapse_time_against_ode(self):
        # v_c ~ v_tilde tau^(1/3) approaching the predicted t_c
        st = DoublePoleState(omega_m2_0=4.0)
        tc = st.classify().t_c
        tau = 1e-5 * tc
        adv = st.advance(tc - tau)
        assert adv.v_c == pytest.approx(st.v_c_tilde() * tau ** (1.0 / 3.0),
                                        rel=2e-3)

    def test_inviscid_collapse_time(self):
        # nu = 0: v_c^3 = v_c0^3 - (3/4) v_c0 omega_m2_0 t reaches 0 at
        # t_c = 4 v_c0^2 / (3 omega_m2_0) = 2/3 for the default data
        st = DoublePoleState(nu=0.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(2.0 / 3.0, rel=1e-15)
        for tau in (1e-3, 1e-6, 1e-9):
            adv = st.advance(cl.t_c - tau)
            assert adv.v_c == pytest.approx(
                st.v_c_tilde() * tau ** (1.0 / 3.0), rel=1e-6)
        with pytest.raises(PastCollapseError):
            st.advance(cl.t_c)

    def test_implicit_invariant_is_affine_in_time(self):
        st = DoublePoleState(omega_m2_0=4.0)
        tc = st.classify().t_c
        ts = np.array([0.1, 0.35, 0.7]) * tc
        g0 = st.implicit_invariant()
        slope = st._scaled_c1() * st.nu
        for t in ts:
            g = st.advance(t).implicit_invariant()
            assert abs(g - (g0 + slope * t)) < 1e-10

    def test_inviscid_implicit_invariant_is_conserved(self):
        # G has no meaning at nu = 0; the invariant is v_c omega_m2 itself
        st = DoublePoleState(omega_m2_0=4.0, nu=0.0)
        tc = st.classify().t_c
        assert st.implicit_invariant() == 4.0
        for t in np.array([0.1, 0.5, 0.9]) * tc:
            assert st.advance(t).implicit_invariant() == pytest.approx(
                4.0, rel=1e-14)

    def test_norms_closed_form(self):
        st = DoublePoleState(omega_m2_0=4.0).advance(0.1)
        rep = norms(st.field(1024))
        cf = st.norms_closed_form()
        assert rep.linf == pytest.approx(cf["linf"], rel=1e-6)
        assert rep.l2 == pytest.approx(cf["l2"], rel=1e-8)

    def test_similarity_profile_matches_rescaled_field(self):
        st = DoublePoleState(omega_m2_0=4.0)
        cl = st.classify()
        xi = np.linspace(-3.0, 3.0, 61)
        prof = st.similarity_profile(xi)
        tau = 1e-7 * cl.t_c
        resc = tau * st.advance(cl.t_c - tau).evaluate(
            cl.x_c + xi * tau ** (1.0 / 3.0))
        assert np.max(np.abs(resc - prof)) < 1e-2 * np.max(np.abs(prof))

    def test_steady_profile_raises(self):
        with pytest.raises(NotCollapsingError):
            DoublePoleState().similarity_profile(np.array([1.0]))

    # collapsing (three), below the equilibrium ratio, negative, inviscid
    ODE_STATES = [dict(omega_m2_0=4.0), dict(v_c0=2.0, omega_m2_0=6.0, nu=1.3),
                  dict(v_c0=0.5, omega_m2_0=1.0001), dict(omega_m2_0=1.0),
                  dict(omega_m2_0=-1.5, nu=0.7),
                  dict(omega_m2_0=-1.0, nu=0.0)]

    @staticmethod
    def horizon(st):
        cl = st.classify()
        return 0.95 * cl.t_c if cl.kind is Kind.COLLAPSE else 5.0

    @staticmethod
    def assert_matches_solve_ivp(st, ts, rel=1e-9):
        # the pole ODE dv/dt = nu - r/4, d omega/dt = r^2/4 (r = omega/v)
        sol = solve_ivp(lambda _t, y: [st.nu - y[1] / (4.0 * y[0]),
                                       y[1] ** 2 / (4.0 * y[0] ** 2)],
                        (0.0, ts[-1]), [st.v_c0, st.omega_m2_0],
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=ts)
        for t, v, om in zip(ts, *sol.y):
            adv = st.advance(t)
            assert adv.v_c == pytest.approx(v, rel=rel)
            assert adv.omega_m2 == pytest.approx(om, rel=rel)

    @pytest.mark.parametrize("kw", ODE_STATES)
    def test_closed_form_matches_solve_ivp(self, kw):
        st = DoublePoleState(**kw)
        self.assert_matches_solve_ivp(st, np.linspace(0.0, self.horizon(st),
                                                      12)[1:])

    @pytest.mark.parametrize("om", [2.0 + 1e-10, 2.0 - 1e-10,
                                    np.nextafter(2.0, 3.0),
                                    np.nextafter(2.0, 0.0)])
    def test_near_equilibrium_matches_solve_ivp(self, om):
        # the ratio stays near the equilibrium 2 nu for times of order 1,
        # where v_c and omega_m2 hang on sqrt|r/nu - 2|; the ODE is easy
        # there, and solve_ivp's answer is good to 1e-14
        self.assert_matches_solve_ivp(DoublePoleState(omega_m2_0=om),
                                      np.linspace(0.0, 5.0, 11)[1:], 1e-12)

    @pytest.mark.parametrize("kw", ODE_STATES)
    def test_closed_form_solves_the_ode(self, kw):
        # central differences of the closed form against the ODE's right
        # side, and the invariant v r / sqrt|r/2 - nu| (v omega at nu = 0)
        st = DoublePoleState(**kw)
        horizon = self.horizon(st)
        h = 1e-5 * horizon
        inv = []
        for t in np.linspace(0.1, 0.9, 5) * horizon:
            a, b, c = (st.advance(t + d) for d in (-h, 0.0, h))
            r = b.omega_m2 / b.v_c
            dv, dom = st.nu - r / 4.0, r * r / 4.0
            assert (c.v_c - a.v_c) / (2 * h) == pytest.approx(dv, rel=1e-6)
            assert (c.omega_m2 - a.omega_m2) / (2 * h) == pytest.approx(
                dom, rel=1e-6)
            inv.append(b.v_c * r / np.sqrt(abs(r / 2.0 - st.nu)))
        assert np.ptp(inv) <= 1e-12 * abs(inv[0])


class TestOnePairS1:
    def test_steady_solution(self):
        st = OnePairS1State(omega_m1_0=-1.0, nu=1.0)
        assert st.classify().kind is Kind.STEADY
        x = np.linspace(-4.0, 4.0, 33)
        assert np.allclose(st.advance(2.5).evaluate(x), st.evaluate(x),
                           atol=1e-14)

    def test_collapse_time_and_location(self):
        # v_c(t) = (omega + nu) t + v_c0 hits the axis at t = 1
        st = OnePairS1State(omega_m1_0=-2.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(1.0, abs=1e-15)
        assert cl.x_c == pytest.approx(0.0, abs=1e-15)
        assert cl.alpha == cl.beta == 1.0

    def test_global_when_real_part_above_minus_nu(self):
        st = OnePairS1State(omega_m1_0=-0.5, nu=1.0)
        assert st.classify().kind is Kind.GLOBAL

    def test_complex_data_collapse_point(self):
        om, v0 = -2.0 + 0.5j, 1.0 + 0.25j
        st = OnePairS1State(omega_m1_0=om, v_c0=v0, nu=1.0)
        cl = st.classify()
        # at t_c the pole sits at x = -Im v_c(t_c)
        v = st.v_c(cl.t_c)
        assert v.real == pytest.approx(0.0, abs=1e-14)
        assert cl.x_c == pytest.approx(-v.imag, abs=1e-12)

    def test_norms_closed_form(self):
        st = OnePairS1State(omega_m1_0=-2.0 + 1.0j, v_c0=1.5).advance(0.2)
        rep = norms(st.field(2048))
        cf = st.norms_closed_form()
        assert rep.linf == pytest.approx(cf["linf"], rel=1e-5)
        assert rep.l2 == pytest.approx(cf["l2"], rel=1e-8)

    def test_similarity_profile_matches_rescaled_field(self):
        st = OnePairS1State(omega_m1_0=-2.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        xi = np.linspace(-5.0, 5.0, 41)
        prof = st.similarity_profile(xi)
        tau = 1e-7
        resc = tau * st.advance(cl.t_c - tau).evaluate(cl.x_c + xi * tau)
        assert np.max(np.abs(resc - prof)) < 1e-4 * np.max(np.abs(prof))


class TestTwoPairS1:
    def test_total_residue_is_conserved_exactly(self):
        st = TwoPairS1State()
        for t in (0.05, 0.15, 0.29):
            om1, om2, _, _ = st.values_at(t)
            assert om1 + om2 == st.c0

    def test_short_time_limit_recovers_initial_data(self):
        st = TwoPairS1State(omega_m1_1_0=-2.0 + 0.3j, omega_m1_2_0=1.0,
                            v_c1_0=0.4, v_c2_0=1.1, nu=1.0)
        om1, om2, v1, v2 = st.values_at(1e-12)
        assert om1 == pytest.approx(st.omega_m1_1_0, abs=1e-10)
        assert om2 == pytest.approx(st.omega_m1_2_0, abs=1e-10)
        assert v1 == pytest.approx(st.v_c1_0, abs=1e-10)
        assert v2 == pytest.approx(st.v_c2_0, abs=1e-10)

    def test_advance_classifies_once_per_state(self, monkeypatch):
        # criterion 08's series advances one state to 90 times
        calls = []
        classify = TwoPairS1State.classify

        def counted(self):
            calls.append(self)
            return classify(self)

        monkeypatch.setattr(TwoPairS1State, "classify", counted)
        st = TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        for t in (0.05, 0.1, 0.2, 0.25, 0.29):
            st.advance(t)
        assert len(calls) == 1
        with pytest.raises(PastCollapseError):
            st.advance(0.31)
        assert len(calls) == 1

    def test_degenerate_tangency(self):
        # om1 = -2: v_c1(t) = t - 0.4 sqrt(1+10t) + 0.5 has a double root
        # at t = 0.3 ((t - 0.3)^2 = 0 after squaring)
        st = TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(0.3, abs=1e-6)
        # the double root is settled by bisecting the pole velocity's
        # simple zero, not by searching the flat distance
        assert cl.t_c == pytest.approx(0.3, abs=1e-13)
        assert cl.alpha == cl.beta == 2.0

    def test_transversal_crossing(self):
        # om1 = -2.1: t^2 - 0.68 t + 0.09 = 0, first root t = 0.18
        st = TwoPairS1State(omega_m1_1_0=-2.1, omega_m1_2_0=2.1,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(0.18, abs=1e-9)
        assert cl.alpha == cl.beta == 1.0

    @pytest.mark.parametrize("om", [-2.1, -2.5 + 0.3j, -4.0])
    def test_crossing_time_matches_brentq(self, om):
        st = TwoPairS1State(omega_m1_1_0=om, omega_m1_2_0=-om,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        cl = st.classify()
        assert cl.alpha == 1.0
        ref = brentq(lambda t: min(st.pole_distances(t)), 0.5 * cl.t_c,
                     1.0001 * cl.t_c, xtol=1e-14, rtol=1e-15)
        assert abs(cl.t_c - ref) <= 2e-14 + 2e-15 * ref

    def test_near_degenerate_is_global(self):
        # om1 = -1.9: the radicand's double root disappears
        st = TwoPairS1State(omega_m1_1_0=-1.9, omega_m1_2_0=1.9,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        assert st.classify().kind is Kind.GLOBAL

    def test_pole_distance_is_continuous(self):
        st = TwoPairS1State(omega_m1_1_0=-2.1, omega_m1_2_0=2.1,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        ts = np.linspace(0.0, 0.17, 200)
        v1 = np.array([st.pole_distances(t)[0] for t in ts])
        assert np.max(np.abs(np.diff(v1))) < 0.05

    def test_tangent_profile_matches_rescaled_field(self):
        st = TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        cl = st.classify()
        xi = np.linspace(-4.0, 4.0, 41)
        prof = st.similarity_profile(xi)
        tau = 1e-5
        resc = tau**2 * st.advance(cl.t_c - tau).evaluate(
            cl.x_c + xi * tau**2)
        assert np.max(np.abs(resc - prof)) < 1e-2 * np.max(np.abs(prof))

    @pytest.mark.parametrize("tau", [1e-4, 1e-5, 1e-6])
    def test_tangent_profile_misfit_is_first_order_in_tau(self, tau):
        st = TwoPairS1State(omega_m1_1_0=-2.0, omega_m1_2_0=2.0,
                            v_c1_0=0.1, v_c2_0=0.9, nu=1.0)
        cl = st.classify()
        xi = np.linspace(-4.0, 4.0, 41)
        prof = st.similarity_profile(xi)
        resc = tau**2 * st.advance(cl.t_c - tau).evaluate(
            cl.x_c + xi * tau**2)
        assert np.max(np.abs(resc - prof)) <= 2.0 * tau * np.max(np.abs(prof))

    def test_zero_residue_pair_drifts_at_nu(self):
        # omega_1 = 0 stays 0 and v_c1 = v_c1_0 + nu t: the other pair must
        # not take its label
        st = TwoPairS1State(
            omega_m1_1_0=0.0,
            omega_m1_2_0=-0.20645304286758895 + 0.7836444489443992j,
            v_c1_0=0.3058946566420722 + 0.8168279035327226j,
            v_c2_0=0.4050988737406306 + 0.44123481658854596j)
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            om1, _, v1, _ = st.values_at(t)
            assert abs(om1) <= 1e-12
            assert abs(v1 - (st.v_c1_0 + t)) <= 1e-12

    def test_closed_form_solves_the_pole_ode(self):
        # central differences: dv_j/dt = nu + omega_j and
        # d omega_1/dt = -d omega_2/dt = 2 omega_1 omega_2 / (v_c1 - v_c2)
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(50):
            om = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.uniform(0.2, 1.5, 2) + 1j * rng.normal(size=2)
            st = TwoPairS1State(om[0], om[1], v[0], v[1],
                                nu=rng.uniform(0.0, 2.0))
            t = rng.uniform(0.0, 1.0)
            p = np.array(st.values_at(np.array([t - h, t, t + h])))
            om1, om2, v1, v2 = p[:, 1]
            rate = 2.0 * om1 * om2 / (v1 - v2)
            want = np.array([rate, -rate, st.nu + om1, st.nu + om2])
            got = (p[:, 2] - p[:, 0]) / (2.0 * h)
            assert np.max(np.abs(got - want)) <= 1e-6 * max(
                1.0, np.max(np.abs(want)))

    def test_root_agrees_with_the_continued_root(self):
        # values_at against the square root continued over 4,096 samples
        # of the radicand on [0, t], where that sampling resolves it
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(10):
            om = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.uniform(0.2, 1.5, 2) + 1j * rng.normal(size=2)
            st = TwoPairS1State(om[0], om[1], v[0], v[1])
            dv, vsum = st.v_c1_0 - st.v_c2_0, st.v_c1_0 + st.v_c2_0
            for t in (-0.5, 0.3, 1.0, 4.0):
                ts = np.linspace(0.0, t, 4096)
                rad = 1.0 + 2.0 * st.c1 * ts / dv + st.c0**2 * ts**2 / dv**2
                if np.min(np.abs(rad)) <= 10.0 * np.max(np.abs(np.diff(rad))):
                    continue
                s = loop_continuous_sqrt(rad)[-1]
                v1 = (0.5 * st.c0 + st.nu) * t + 0.5 * dv * s + 0.5 * vsum
                assert st.values_at(t)[2] == pytest.approx(v1, rel=1e-13)
                checked += 1
        assert checked >= 30


class TestTwoPairDoublePoleLimit:
    def test_collapse_time_supercritical(self):
        # A = 4, V_c = nu = 1: t_c = d - sqrt(d^2 - 1) with d = 3
        st = TwoPairDoublePoleLimitState(amplitude=4.0, v_c=1.0, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-14)
        assert cl.alpha == cl.beta == 1.0

    def test_threshold_case_is_tangent(self):
        st = TwoPairDoublePoleLimitState(amplitude=2.0, v_c=1.0, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(1.0)
        assert cl.alpha == cl.beta == 2.0

    def test_subcritical_is_global(self):
        st = TwoPairDoublePoleLimitState(amplitude=1.0, v_c=1.0, nu=1.0)
        assert st.classify().kind is Kind.GLOBAL

    def test_pole_distance_vanishes_at_t_c(self):
        st = TwoPairDoublePoleLimitState(amplitude=4.0)
        tc = st.classify().t_c
        _, _, v1, _ = st.values_at(tc)
        assert v1 == pytest.approx(0.0, abs=1e-13)

    def test_split_poles_recover_double_pole_at_short_time(self):
        st = TwoPairDoublePoleLimitState(amplitude=4.0)
        x = np.linspace(-5.0, 5.0, 41)
        w0 = st.evaluate(x)
        w_eps = st.advance(1e-10).evaluate(x)
        assert np.max(np.abs(w_eps - w0)) < 1e-3 * np.max(np.abs(w0))


class TestOnePairS0:
    def test_collapse_time_is_log_two(self):
        # om = -2, v0 = nu = 1: t_c = -log(1 + nu v0/om)/nu = log 2
        st = OnePairS0State(omega_m1_0=-2.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(np.log(2.0), abs=1e-15)
        assert cl.x_c == 0.0

    def test_trajectories(self):
        st = OnePairS0State(omega_m1_0=-2.0, v_c0=1.0, nu=1.0)
        t = 0.25
        assert st.omega_m1(t) == pytest.approx(-2.0 * np.exp(-t))
        assert st.v_c(t) == pytest.approx(-2.0 * (1.0 - np.exp(-t)) + 1.0)

    def test_inviscid_limit(self):
        st = OnePairS0State(omega_m1_0=-0.5, v_c0=1.0, nu=0.0)
        cl = st.classify()
        assert cl.t_c == pytest.approx(2.0)
        assert st.v_c(1.0) == pytest.approx(0.5)

    def test_steady_and_global_kinds(self):
        assert OnePairS0State(omega_m1_0=-1.0, v_c0=1.0,
                              nu=1.0).classify().kind is Kind.STEADY
        assert OnePairS0State(omega_m1_0=-0.5, v_c0=1.0,
                              nu=1.0).classify().kind is Kind.GLOBAL

    def test_norms_closed_form(self):
        st = OnePairS0State(omega_m1_0=-2.0 + 0.5j, v_c0=1.0).advance(0.3)
        rep = norms(st.field(2048))
        cf = st.norms_closed_form()
        assert rep.linf == pytest.approx(cf["linf"], rel=1e-5)
        assert rep.l2 == pytest.approx(cf["l2"], rel=1e-8)

    def test_similarity_profile_matches_rescaled_field(self):
        st = OnePairS0State(omega_m1_0=-2.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        xi = np.linspace(-5.0, 5.0, 41)
        prof = st.similarity_profile(xi)
        tau = 1e-7
        resc = tau * st.advance(cl.t_c - tau).evaluate(cl.x_c + xi * tau)
        assert np.max(np.abs(resc - prof)) < 1e-4 * np.max(np.abs(prof))


class TestPeriodicPole:
    def test_closed_form_matches_pole_ode(self):
        # independent oracle for the (omega_{-1}, v_c) dynamics
        st = PeriodicPoleState(omega_m1_0=-1.0 + 0.4j, v_c0=0.8 - 0.2j,
                               nu=0.7)

        def rhs(_t, y):
            om, v = complex(y[0], y[1]), complex(y[2], y[3])
            dom = -st.nu * om + 2.0 * om**2 / (1.0 + v)
            return [dom.real, dom.imag, om.real, om.imag]

        sol = solve_ivp(rhs, (0.0, 0.5),
                        [st.omega_m1_0.real, st.omega_m1_0.imag,
                         st.v_c0.real, st.v_c0.imag],
                        rtol=1e-12, atol=1e-14, method="DOP853")
        assert st.omega_m1(0.5) == pytest.approx(
            complex(sol.y[0, -1], sol.y[1, -1]), abs=1e-10)
        assert st.v_c(0.5) == pytest.approx(
            complex(sol.y[2, -1], sol.y[3, -1]), abs=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.7])
    def test_pole_velocity_is_the_residue(self, nu):
        # d v_c/dt = omega_{-1}, the derivative the crossing scan bisects
        st = PeriodicPoleState(omega_m1_0=-1.0 + 0.4j, v_c0=0.8 - 0.2j, nu=nu)
        h = 1e-5
        for t in (0.0, 0.3, 0.9):
            fd = (st.v_c(t + h) - st.v_c(t - h)) / (2.0 * h)
            assert fd == pytest.approx(st.omega_m1(t), rel=1e-9)

    def test_real_data_kinds(self):
        # nu = 1, v0 = 1: global for -2 < om < 2, steady at the edges
        mk = lambda om: PeriodicPoleState(omega_m1_0=om, v_c0=1.0, nu=1.0)
        assert mk(-1.0).classify().kind is Kind.GLOBAL
        assert mk(2.0).classify().kind is Kind.STEADY
        assert mk(-2.0).classify().kind is Kind.STEADY

    def test_real_data_collapse_at_origin(self):
        st = PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(np.log(3.0), abs=1e-14)
        assert cl.x_c == 0.0
        # the pole distance indeed vanishes there
        assert st.v_c(cl.t_c).real == pytest.approx(0.0, abs=1e-12)

    def test_real_data_escape_to_pi(self):
        st = PeriodicPoleState(omega_m1_0=3.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        assert cl.kind is Kind.COLLAPSE
        assert cl.t_c == pytest.approx(np.log(3.0), abs=1e-14)
        assert cl.x_c == pytest.approx(np.pi)

    def test_inviscid_collapse_at_origin(self):
        # om = -1, v0 = 1, nu = 0: t_c = 2, pole reaches the axis at x = 0
        st = PeriodicPoleState(omega_m1_0=-1.0, v_c0=1.0, nu=0.0)
        cl = st.classify()
        assert cl.t_c == pytest.approx(2.0, abs=1e-12)
        assert cl.x_c == pytest.approx(0.0, abs=1e-12)

    def test_inviscid_escape_to_pi(self):
        # om = +1: v_c blows up at t = 2 (pole exits through x = +-pi)
        st = PeriodicPoleState(omega_m1_0=1.0, v_c0=1.0, nu=0.0)
        cl = st.classify()
        assert cl.t_c == pytest.approx(2.0, abs=1e-12)
        assert cl.x_c == pytest.approx(np.pi)

    def test_field_is_mean_free(self):
        f = PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0).field(256)
        assert abs(f.coeffs[0]) < 1e-13

    def test_norms_closed_form(self):
        st = PeriodicPoleState(omega_m1_0=-3.0 + 0.5j, v_c0=1.0 + 0.2j,
                               nu=1.0).advance(0.2)
        rep = norms(st.field(4096))
        cf = st.norms_closed_form()
        assert rep.linf == pytest.approx(cf["linf"], rel=1e-4)
        assert rep.l2 == pytest.approx(cf["l2"], rel=1e-8)
        assert rep.b0 == pytest.approx(cf["b0"], rel=1e-8)

    @pytest.mark.parametrize("om, v0", [(-3.0 + 0.5j, 1.0 + 0.2j),
                                        (-1.5 - 0.8j, 0.4 + 0.3j)])
    def test_complex_data_crossing_time_matches_brentq(self, om, v0):
        st = PeriodicPoleState(omega_m1_0=om, v_c0=v0, nu=1.0)
        cl = st.classify()
        ref = brentq(lambda t: st.v_c(t).real, 0.5 * cl.t_c,
                     1.0001 * cl.t_c, xtol=1e-14, rtol=1e-15)
        assert abs(cl.t_c - ref) <= 2e-14 + 2e-15 * ref

    def test_similarity_profile_matches_rescaled_field(self):
        st = PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        cl = st.classify()
        xi = np.linspace(-4.0, 4.0, 41)
        prof = st.similarity_profile(xi)
        tau = 1e-7
        resc = tau * st.advance(cl.t_c - tau).evaluate(cl.x_c + xi * tau)
        assert np.max(np.abs(resc - prof)) < 1e-4 * np.max(np.abs(prof))


class TestFamilyRegistry:
    def test_lookup_builds_states(self):
        st = family_from_name("onepair_s0", omega_m1_0=-2.0, v_c0=1.0)
        assert isinstance(st, OnePairS0State)
        assert st.omega_m1_0 == -2.0

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_from_name("nosuch")

    @pytest.mark.parametrize("name", sorted(exact._FAMILIES))
    def test_every_family_evaluates_and_classifies(self, name):
        st = family_from_name(name)
        cl = st.classify()
        assert isinstance(cl.kind, Kind)
        f = st.field(128)
        assert f.domain is st.domain
        assert np.all(np.isfinite(f.values()))
        st.gclm_params().validate(st.domain)

    @pytest.mark.parametrize(
        "name", sorted(exact._FAMILIES) + ["doublepole_collapsing"])
    def test_shared_guards(self, name):
        st = DoublePoleState(omega_m2_0=4.0) \
            if name == "doublepole_collapsing" else family_from_name(name)
        cl = st.classify()
        if name in ("doublepole", "periodic_s0"):  # steady and global
            assert cl.kind is not Kind.COLLAPSE
            with pytest.raises(NotCollapsingError):
                st.similarity_profile(np.linspace(-1.0, 1.0, 5))
        else:
            with pytest.raises(PastCollapseError):
                st.advance(cl.t_c)
