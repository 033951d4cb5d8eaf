"""Tests for the right-hand side, the RK8 stepper, and the adaptive driver.

The main oracle is the library of exact pole solutions: their closed-form
time derivatives (by central differences in t) must match the discretized
right-hand side, and full runs must track them at the stated tolerances.
"""

import dataclasses
import io

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.linalg import expm

from gclm import dynamics, exact, spectral, tracker
from gclm.collapse import _fit_window
from gclm.dynamics import (
    _STAB_IMAG,
    _STAB_REAL,
    CSV_COLUMNS,
    RK8_A,
    RK8_B,
    RK8_C,
    RK8_E3,
    RK8_E5,
    SAMPLE_GRID,
    SAMPLE_GROWTH,
    Rhs,
    RunControls,
    TerminalStatus,
    TimeSeries,
    adaptive_dt,
    rk8_step,
    simulate,
)
from gclm.harness import two_mode_field
from gclm.spectral import (
    FIELDS,
    Domain,
    GclmParams,
    SpectralField,
    norms,
    operators,
)


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


class DiagonalRhs:
    """dc/dt = -L c for a diagonal L, through rk8_step's stage calls: like
    Rhs with diss = L, a stage given a scale (Lawson) leaves -L c out."""

    def __init__(self, lin):
        self.lin = lin

    def __call__(self, c, out=None, scale=None):
        f = -self.lin * c if scale is None else np.zeros_like(c)
        if out is None:
            return f
        out[:] = f
        return out


def counted_transforms(monkeypatch):
    """Wrap numpy.fft's real transforms; returns the list of the names of
    the transforms called from then on."""
    calls = []

    def counted(fft):
        def call(*args, **kwargs):
            calls.append(fft.__name__)
            return fft(*args, **kwargs)
        return call

    for fft in (np.fft.rfft, np.fft.irfft):
        monkeypatch.setattr(np.fft, fft.__name__, counted(fft))
    return calls


def lawson_span():
    """Largest c_j - c_i over the nonzero a_ij of the tableau."""
    i, j = np.nonzero(RK8_A)
    return float(np.max(RK8_C[j] - RK8_C[i]))


class TestTableau:
    def test_row_sums_match_nodes(self):
        assert np.allclose(RK8_A.sum(axis=1), RK8_C, atol=1e-15)

    def test_weights_sum_to_one(self):
        assert np.sum(RK8_B) == pytest.approx(1.0, abs=1e-15)

    def test_order_conditions_hold_to_order_eight(self):
        # the bushy trees sum b_i c_i^(q-1) = 1/q and the tall ones
        # b A c^(q-2) = 1/(q(q-1)) hold through q = 8 and not at q = 9
        def defects(q):
            return (abs(RK8_B @ RK8_C**(q - 1) - 1.0 / q),
                    abs(RK8_B @ RK8_A @ RK8_C**(q - 2) - 1.0 / (q * (q - 1))))

        for q in range(2, 9):
            assert max(defects(q)) <= 1e-14, q
        assert min(defects(9)) > 1e-6

    def test_tableau_is_read_only(self):
        for arr in (RK8_A, RK8_B, RK8_C, RK8_E3, RK8_E5):
            assert not arr.flags.writeable

    def test_tableau_is_scipys_dop853(self):
        # the literals are repr-written, so they round-trip bit for bit
        for ours, theirs in [(RK8_A, DOP853.A), (RK8_B, DOP853.B),
                             (RK8_C, DOP853.C), (RK8_E3, DOP853.E3),
                             (RK8_E5, DOP853.E5)]:
            assert ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)
            assert ours.tobytes() == np.asarray(theirs, float).tobytes()

    def test_error_weights_annihilate_low_orders(self):
        # the weights of the 12 stages and the new state (node 1) give the
        # difference to embedded methods of orders 5 and 3: they vanish on
        # c^(q-1) for q = 1..5 and q = 1..3, and not one order higher; the
        # new state's weight is zero, so rk8_step sums the 12 stages only
        nodes = np.append(RK8_C, 1.0)
        assert RK8_E3.size == RK8_E5.size == nodes.size == 13
        assert RK8_E3[-1] == RK8_E5[-1] == 0.0
        for q in range(1, 6):
            assert abs(RK8_E5 @ nodes**(q - 1)) <= 1e-15, q
        for q in range(1, 4):
            assert abs(RK8_E3 @ nodes**(q - 1)) <= 1e-15, q
        assert abs(RK8_E5 @ nodes**5) > 1e-4  # 4.5e-4
        assert abs(RK8_E3 @ nodes**3) > 1e-2  # 2.5e-2

    def test_step_is_exact_for_zero_rhs(self):
        rhs = DiagonalRhs(0.0)
        c0 = np.arange(16, dtype=complex)
        step = rk8_step(c0, 0.5, rhs)
        assert np.array_equal(step.c, c0) and step.error == 0.0

    def test_step_solves_linear_decay_to_order(self):
        # dc/dt = -c: one step of size h has error O(h^9)
        rhs = DiagonalRhs(1.0)
        c0 = np.ones(8, dtype=complex)
        for h in (0.5, 0.25):
            err = abs(rk8_step(c0, h, rhs).c[0] - np.exp(-h))
            assert err < 2.0 * h**9

    def test_last_slope_is_the_rhs_at_the_new_state(self):
        # the step returns rhs(new state), which the next step reuses as
        # its first stage: reusing it changes no bit of the next step
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=0.5, sigma=1.0, nu=1.0), 32)
        c0 = two_mode_field(1.0, 32).coeffs
        first = rk8_step(c0, 0.01, rhs, rhs.diss)
        assert np.array_equal(first.f, rhs(first.c))
        again = rk8_step(first.c, 0.01, rhs, rhs.diss)
        reused = rk8_step(first.c, 0.01, rhs, rhs.diss, first.f)
        assert np.array_equal(reused.c, again.c)
        assert reused.error == again.error > 0.0


def line_dissipation(params, n):
    """The line's dissipation L = nu T^sigma as a real matrix on the float
    view of the coefficients, column by column from Rhs's own: the rhs at
    nu = 0 less the rhs, whose nonlinear terms agree bit for bit."""
    full = Rhs(Domain.LINE, params, n)
    inviscid = Rhs(Domain.LINE, dataclasses.replace(params, nu=0.0), n)
    cols = [(inviscid(e.view(complex)) - full(e.view(complex))).view(float)
            for e in np.eye(2 * (n + 1))]
    return np.array(cols).T


class LineDissipationRhs:
    """dc/dt = -L c for the line's L (:func:`line_dissipation`), through
    rk8_step's stage calls: the nonlinear term switched off, so a Lawson
    stage (given a scale) gets zero in its frame row."""

    def __init__(self, params, n):
        self.ops = operators(n, Domain.LINE)
        self.lin = line_dissipation(params, n)

    def __call__(self, c, out=None, scale=None):
        f = (np.zeros(2 * c.size) if scale is not None
             else -(self.lin @ c.view(float)).view(complex))
        if out is None:
            return f
        out[:] = f
        return out


def textbook_step(c, dt, rhs, lin=None):
    """DOP853 written out from the whole right-hand side rhs(y), stage by
    stage: explicit, or Lawson with E(s) = exp(-s dt L) and
    K_i = E(c_i)^-1 (rhs(Y_i) + L Y_i); the new state and the error
    estimate (scipy's norm, unit scale). L is a diagonal symbol (one entry
    per coefficient) or a real matrix on the float view of the
    coefficients, whose E comes from expm."""
    if lin is None or lin.ndim == 1:
        def e(s, v):
            return v if lin is None else np.exp(-s * dt * lin) * v

        def ly(v):
            return 0.0 if lin is None else lin * v
    else:
        def e(s, v):
            return (expm(-s * dt * lin) @ v.view(float)).view(complex)

        def ly(v):
            return (lin @ v.view(float)).view(complex)

    k = []
    for a_i, c_i in zip(RK8_A, RK8_C):
        y = e(c_i, c + dt * sum(a * kj for a, kj in zip(a_i, k)))
        k.append(e(-c_i, rhs(y) + ly(y)))
    new = e(1.0, c + dt * sum(b * kj for b, kj in zip(RK8_B, k)))
    e5 = e(1.0, sum(w * kj for w, kj in zip(RK8_E5, k)))
    e3 = e(1.0, sum(w * kj for w, kj in zip(RK8_E3, k)))
    n5, n3 = np.sum(np.abs(e5)**2), np.sum(np.abs(e3)**2)
    return new, dt * n5 / np.sqrt((n5 + 0.01 * n3) * c.size)


class TestStepAgainstTextbook:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("domain, nu, lawson", [
        (Domain.CIRCLE, 1.0, True), (Domain.CIRCLE, 1.0, False),
        (Domain.CIRCLE, 0.0, False), (Domain.LINE, 1.0, False),
        (Domain.LINE, 1.0, True)],
        ids=["circle-lawson", "circle-explicit", "circle-inviscid", "line",
             "line-lawson"])
    @pytest.mark.parametrize("reuse", [False, True], ids=["no-f0", "f0"])
    def test_step_matches_textbook_formulas(self, n, domain, nu, lawson,
                                            reuse):
        params = GclmParams(a=0.5, sigma=1.0, nu=nu)
        rhs = Rhs(domain, params, n)
        # random data, and a step that changes it by about 10 %
        c = random_coeffs(n, seed=n) * np.exp(-0.2 * np.arange(n + 1))
        lin = textbook_lin = None
        if lawson and domain is Domain.CIRCLE:
            lin = textbook_lin = rhs.diss
        elif lawson:
            lin, textbook_lin = rhs.line_diss, line_dissipation(params, n)
        dt = 0.1 * np.max(np.abs(c)) / np.max(np.abs(rhs(c)))
        step = rk8_step(c, dt, rhs, lin, rhs(c) if reuse else None)
        new, err = textbook_step(c, dt, rhs, textbook_lin)
        assert np.max(np.abs(step.c - new)) <= 1e-14 * np.max(np.abs(new))
        # the estimate is a cancelling sum of the stages: its round-off is
        # about 1e-9 of it here (the estimates are 1e-11 to 1e-7)
        assert step.error == pytest.approx(err, rel=1e-6)
        assert np.array_equal(step.f, rhs(step.c))


class TestErrorEstimate:
    def test_scipy_makes_the_same_accept_and_retry_decisions(self):
        # scipy's DOP853 with atol = s (its rtol term is 1e-4 of that here)
        # takes the step when our estimate is 0.9 s and, at 1.1 s, retries
        # it shortened by the same factor
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=0.5, sigma=1.0, nu=0.0), 16)
        c0 = two_mode_field(1.0, 16).coeffs
        h = 0.4
        step = rk8_step(c0, h, rhs)
        for ratio in (0.9, 1.1):
            solver = DOP853(lambda t, y: rhs(y), 0.0, c0, 1.0, first_step=h,
                            rtol=1e-13, atol=step.error / ratio)
            solver.step()
            if ratio < 1.0:
                assert solver.step_size == h
                assert np.max(np.abs(solver.y - step.c)) <= 1e-15
            else:
                assert solver.step_size == pytest.approx(
                    h * dynamics._step_factor(ratio), rel=1e-4)

    def test_step_factor_is_bounded(self):
        assert dynamics._step_factor(0.0) == 10.0
        assert dynamics._step_factor(1e-20) == 10.0
        assert dynamics._step_factor(1.0) == pytest.approx(0.9)
        assert dynamics._step_factor(np.inf) == 0.2


def stability_function(z):
    """R(z) = 1 + z b^T (I - zA)^-1 1 of the tableau."""
    s = RK8_B.size
    return 1.0 + z * (RK8_B @ np.linalg.solve(np.eye(s) - z * RK8_A,
                                              np.ones(s)))


class TestStabilityInterval:
    @pytest.mark.parametrize("axis, bound", [(1j, _STAB_IMAG),
                                             (-1.0, _STAB_REAL)],
                             ids=["imaginary", "negative_real"])
    def test_constants_bound_the_stability_interval(self, axis, bound):
        # near z = 0, |R(iy)| = 1 - O(y^10) rounds to 1 + 2e-16
        inside = [abs(stability_function(axis * s))
                  for s in np.linspace(bound / 3000, bound, 3000)]
        assert max(inside) <= 1.0 + 1e-15
        assert abs(stability_function(axis * 1.01 * bound)) > 1.0

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_line_dissipation_spectral_radius_is_below_2n(self, n):
        # the bound adaptive_dt uses: ||1 + cos q||_inf = 2 and |k| <= N;
        # dense grid-space matrix of the discrete (1 + cos q) d_q H^q
        ops = operators(n, Domain.LINE)
        cols = [ops.jac * ops.phys(ops.kabs * ops.spec(e))
                for e in np.eye(2 * n)]
        eig = np.linalg.eigvals(np.array(cols).T)
        assert 1.85 * n <= np.max(np.abs(eig)) <= 2.0 * n


class TestLawsonStep:
    def test_span_is_one_twelfth(self):
        assert lawson_span() == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_linear_part_is_exact(self):
        # rhs = -L c: one Lawson step is e^{-hL} c0, with a zero error
        # estimate, even at the largest step the round-off cap allows
        lin = operators(16, Domain.CIRCLE).kabs ** 2
        h = dynamics._LAWSON_GROWTH / (lawson_span() * np.max(lin))
        c0 = random_coeffs(16)
        got = rk8_step(c0, h, DiagonalRhs(lin), lin)
        assert np.max(np.abs(got.c - np.exp(-h * lin) * c0)) <= 1e-14
        assert got.error == 0.0

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("sigma", [1, 2])
    def test_line_linear_part_is_exp_of_the_dissipation(self, n, sigma):
        # the nonlinear term switched off: one Lawson step is
        # expm(-h L) c for the line's non-diagonal L, even at the largest
        # step the round-off cap allows
        params = GclmParams(a=0.0, sigma=sigma, nu=0.7)
        rhs = Rhs(Domain.LINE, params, n)
        dissipation = LineDissipationRhs(params, n)
        c = random_coeffs(n, seed=sigma) * np.exp(-0.1 * np.arange(n + 1))
        h = rhs.lawson_cap
        got = rk8_step(c, h, dissipation, rhs.line_diss)
        want = (expm(-h * dissipation.lin) @ c.view(float)).view(complex)
        assert np.max(np.abs(got.c - want)) <= 1e-12 * np.max(np.abs(c))

    def test_zero_field_stays_zero_at_any_step(self):
        # exp(-dt L) underflows to 0 here; the step must not form 0/0
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=0.5, sigma=2.0, nu=1.0), 64)
        out = rk8_step(np.zeros(65, dtype=complex), 50.0, rhs, rhs.diss)
        assert np.array_equal(out.c, np.zeros(65)) and out.error == 0.0

    def test_self_convergence_is_eighth_order(self):
        # criterion 09's run at nu = 1, Lawson-stepped; the errors against
        # m = 2000 run from 7e-7 to 8e-11, far above round-off
        params = GclmParams(a=4.0, sigma=1.0, nu=1.0)
        f0 = two_mode_field(2.0, 16)
        rhs = Rhs(Domain.CIRCLE, params, 16)
        t_end = 0.4

        def integrate(m):
            c, f = f0.coeffs.copy(), None
            for _ in range(m):
                c, f, _ = rk8_step(c, t_end / m, rhs, rhs.diss, f)
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
        c, f = f0.coeffs.copy(), None
        for _ in range(500):
            c, f, _ = rk8_step(c, 1.0 / 500, rhs, f0=f)
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

    @pytest.mark.parametrize("domain, nu", [
        (Domain.LINE, 1.0), (Domain.LINE, 0.0), (Domain.CIRCLE, 0.0)])
    def test_no_diagonal_dissipation_off_the_dissipative_circle(self, domain,
                                                                nu):
        # only the circle with nu != 0 is Lawson-stepped
        assert Rhs(domain, GclmParams(a=0.5, nu=nu), 64).diss is None

    @pytest.mark.parametrize("a", [0.0, 0.5])
    @pytest.mark.parametrize("sigma", [0, 1, 2])
    def test_line_rhs_matches_coefficient_space_dissipation(self, sigma, a):
        # reference: the dissipation applied after the nonlinear term's
        # transform, d = c then sigma rounds of spec(jac phys(|k| d))
        n, c = 128, random_coeffs(128, seed=sigma)
        c *= np.exp(-0.05 * np.arange(n + 1))
        p = GclmParams(a=a, sigma=sigma, nu=0.7)
        ops = operators(n, Domain.LINE)
        w, ux, *adv = ops.fields(c, FIELDS if a else FIELDS[:2])
        nl = w * ux - (a * adv[0] * adv[1] if adv else 0.0)
        d = c
        for _ in range(sigma):
            d = ops.spec(ops.jac * ops.phys(ops.kabs * d))
        ref = ops.spec(nl) - p.nu * d
        got = Rhs(Domain.LINE, p, n)(c)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("state, n_transforms", [
        (exact.SchochetState(), 2),
        (exact.DoublePoleState(omega_m2_0=4.0), 4)],
        ids=["schochet", "double_pole"])
    def test_line_rhs_transform_count(self, state, n_transforms,
                                      monkeypatch):
        # one stacked irfft, two for the velocity when a != 0, one rfft of
        # the nonlinear term; the dissipation takes none
        rhs = Rhs(Domain.LINE, state.gclm_params(), 64)
        c = state.field(64).coeffs
        calls = counted_transforms(monkeypatch)
        rhs(c)
        assert len(calls) == n_transforms, calls

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_circle_rhs_transform_count(self, a, monkeypatch):
        # one stacked irfft and one rfft, also in a Lawson stage's call
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=a, sigma=1.0, nu=1.0), 64)
        c = two_mode_field(2.0, 64).coeffs
        calls = counted_transforms(monkeypatch)
        rhs(c)
        assert calls == ["irfft", "rfft"]
        rhs(c, out=np.empty_like(c), scale=np.ones_like(c))
        assert calls == ["irfft", "rfft"] * 2

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
        rhs = Rhs(Domain.CIRCLE, params, 64)
        rhs(f.coeffs)
        dt = adaptive_dt(rhs, 1.0 / 16.0, np.inf)
        assert dt == pytest.approx(1.0 / 32.0, rel=1e-12)

    def test_lawson_growth_limit_dominates(self):
        # a = nu = 1, sigma = 2, N = 64, max|u| = max|Hw| = 1: the round-off
        # cap 8.41 / (span * 64^2) = 0.0246, outside cfl, is below the
        # advection limit cfl * 5.96/64 = 0.0466 at cfl = 1/2
        f = SpectralField.from_function(np.cos, 64)
        params = GclmParams(a=1.0, sigma=2.0, nu=1.0)
        rhs = Rhs(Domain.CIRCLE, params, 64)
        rhs(f.coeffs)
        dt = adaptive_dt(rhs, 0.5, np.inf)
        assert dt == pytest.approx(
            dynamics._LAWSON_GROWTH / (lawson_span() * 64.0**2), rel=1e-12)
        # ln(TAIL_TOL / eps)
        assert dynamics._LAWSON_GROWTH == pytest.approx(8.41, abs=5e-3)

    @pytest.mark.parametrize("nu", [0.0, 1.0], ids=["explicit", "lawson"])
    def test_step_leaves_the_fields_of_its_new_state(self, nu):
        # a step's last evaluation is at the new state, so the limit read
        # after it is the limit of a fresh evaluation there
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=0.5, sigma=1.0, nu=nu), 64)
        step = rk8_step(two_mode_field(2.0, 64).coeffs, 0.05, rhs, rhs.diss)
        reused = adaptive_dt(rhs, 0.5)
        rhs(step.c)
        assert adaptive_dt(rhs, 0.5) == reused

    def test_zero_field_returns_dt_max(self):
        c = np.zeros(65, dtype=complex)
        rhs = Rhs(Domain.CIRCLE, GclmParams(a=0.5, sigma=1.0, nu=1.0), 64)
        rhs(c)
        assert adaptive_dt(rhs, 1.0 / 32.0, 2.5) == 2.5


class TestTimeSeries:
    def make_rows(self):
        return [dict(t=t, max_abs_omega=1.0 + i, delta_x=0.5 / (1 + i),
                     p_fit=2.0, l2=1.0, b0=3.0, energy=0.25, n_modes=256)
                for i, t in enumerate(np.linspace(0.0, 1.0, 9))]

    def make_series(self):
        return TimeSeries.from_rows(self.make_rows(),
                                    TerminalStatus.REACHED_T_END)

    def test_rows_give_float_columns_and_integer_modes(self):
        # simulate collects rows and builds the columns once at the end
        ts = self.make_series()
        for name in CSV_COLUMNS:
            col = getattr(ts, name)
            assert col.dtype == (int if name == "n_modes" else float)
            assert np.array_equal(col, [row[name] for row in self.make_rows()])

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

    def test_older_file_with_a_linf_column_reads(self):
        # older series.csv files carry linf, a copy of max_abs_omega
        text = ("# status=CollapseDetected\n"
                "t,max_abs_omega,delta_x,p_fit,l2,linf,b0,energy,n_modes\n"
                "0.0,5.25,nan,nan,7.5,5.25,6.0,26.5,64\n"
                "0.125,6.5,0.75,1.5,8.0,6.5,6.25,27.0,128\n")
        ts = TimeSeries.from_csv(io.StringIO(text))
        assert ts.terminal_status is TerminalStatus.COLLAPSE_DETECTED
        assert np.array_equal(ts.t, [0.0, 0.125])
        assert np.array_equal(ts.max_abs_omega, [5.25, 6.5])
        assert np.array_equal(ts.delta_x, [np.nan, 0.75], equal_nan=True)
        assert np.array_equal(ts.b0, [6.0, 6.25])
        assert np.array_equal(ts.energy, [26.5, 27.0])
        assert np.array_equal(ts.n_modes, [64, 128])
        assert ts.n_modes.dtype.kind == "i"
        buf = io.StringIO()
        ts.to_csv(buf)
        kept = [",".join(c for i, c in enumerate(line.split(",")) if i != 5)
                for line in text.splitlines()[1:]]
        assert buf.getvalue().splitlines()[1:] == kept

    def test_file_lacking_a_column_is_rejected(self):
        text = ("t,max_abs_omega,delta_x,p_fit,l2,b0,n_modes\n"
                "0.0,5.25,nan,nan,7.5,6.0,64\n")
        with pytest.raises(ValueError, match="energy"):
            TimeSeries.from_csv(io.StringIO(text))


#: the circle collapse of the benchmark, capped at its initial N = 64
CAP_PARAMS = GclmParams(a=0.5, sigma=1.0, nu=1.0)
CAP_CONTROLS = RunControls(t_end=1.4, n0=64, n_max=64)

#: the small-data decay of the benchmark (bench/workloads.py)
DECAY_PARAMS = GclmParams(a=0.5, sigma=1.0, nu=1.0)


def recording_step(monkeypatch):
    """Wrap dynamics.rk8_step; returns the list it fills with the
    (start coefficients, dt, Step) of every attempted step."""
    attempts = []

    def recorded(c, dt, rhs, lin=None, f0=None):
        out = rk8_step(c, dt, rhs, lin, f0)
        attempts.append((c, dt, out))
        return out

    monkeypatch.setattr(dynamics, "rk8_step", recorded)
    return attempts


def accepted(attempts, final):
    """The attempts the run kept: those the next attempt starts from, and
    the last one if it gave the final coefficients."""
    ends = [c for c, _, _ in attempts[1:]] + [final]
    return [(c, dt, out) for (c, dt, out), end in zip(attempts, ends)
            if np.array_equal(out.c, end)]


def accumulated(dts):
    """Running time over steps dts, added in order as simulate adds them."""
    t = 0.0
    for dt in dts:
        t += dt
    return t


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

    def test_mean_vorticity_rotates_small_data(self):
        # w = 1e-8 cos x: the linear part w_1' = (-i omega_av - nu) w_1,
        # from omega_av H(w) - nu Lambda w; the quadratic terms are 1e-8
        # smaller
        f = SpectralField.from_function(lambda x: 1e-8 * np.cos(x), 32)
        params = GclmParams(a=0.5, sigma=1.0, nu=1.0, omega_av=0.7)
        _, state = simulate(f, params, RunControls(t_end=2.0, n0=32))
        assert state.t == 2.0 and state.field.grid_size == 32
        want = f.coeffs[1] * np.exp((-1j * params.omega_av - params.nu) * 2.0)
        assert state.field.coeffs[1] == pytest.approx(want, rel=1e-12)

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
        # rule 3: the fitted distance against 5 grid spacings
        assert state.stop_reason.startswith("delta = ")
        assert "< 5 grid spacings" in state.stop_reason
        assert f"N = {state.field.grid_size}," in state.stop_reason

    def test_under_resolved_start_triggers_refinement(self):
        # v_c0 = 0.05: the initial spectrum needs more than 64 modes
        st = exact.OnePairS1State(omega_m1_0=-0.5, v_c0=0.05, nu=1.0)
        controls = RunControls(t_end=0.01, n0=64, n_max=4096)
        _, state = simulate(st.field(64), st.gclm_params(), controls)
        assert state.n_refinements >= 1
        assert state.field.grid_size > 64

    def test_negative_delta_is_no_collapse(self, monkeypatch):
        # a global solution whose fits at N = 256 reach delta < 0 (from
        # -0.0911 at t = 0.0829 on): a fit that grows with k places no
        # singularity, so the run goes on to t_end
        deltas = []

        def recorded(field):
            out = fit(field)
            deltas.append(out.delta)
            return out

        fit = tracker.fit_fourier_decay
        monkeypatch.setattr(tracker, "fit_fourier_decay", recorded)
        st = exact.OnePairS1State(omega_m1_0=-0.5, v_c0=0.05, nu=1.0)
        assert st.classify().kind is exact.Kind.GLOBAL
        controls = RunControls(t_end=0.1, n0=64, n_max=4096)
        series, state = simulate(st.field(64), st.gclm_params(), controls)
        assert min(deltas) < 0.0
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert state.stop_reason == "reached t_end = 0.1 at N = 256"

    def test_sample_dt_controls_cadence(self):
        # with steps shorter than sample_dt, every grid interval the run
        # covers holds a sample
        st = exact.OnePairS0State(omega_m1_0=-0.5, v_c0=1.0, nu=1.0)
        controls = RunControls(t_end=0.5, n0=64, sample_dt=0.1, dt_max=0.03)
        series, state = simulate(st.field(64), st.gclm_params(), controls)
        intervals = np.floor(series.t / 0.1).astype(int)
        assert set(range(5)) <= set(intervals)
        assert series.t[-1] == state.t
        # longer steps are not cut to land on the grid
        controls.dt_max = np.inf
        _, state = simulate(st.field(64), st.gclm_params(), controls)
        assert state.step < 5

    def test_decaying_solution_reaches_t_end(self):
        f = SpectralField.from_function(
            lambda x: -0.1 * (np.sin(x) + 0.5 * np.sin(2 * x)), 64)
        params = GclmParams(a=0.0, sigma=1.0, nu=1.0)
        controls = RunControls(t_end=5.0, n0=64)
        series, state = simulate(f, params, controls)
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert series.max_abs_omega[-1] < series.max_abs_omega[0]
        assert state.stop_reason == "reached t_end = 5 at N = 64"

    def test_resolution_cap_is_reported(self, monkeypatch):
        # the benchmark's two-mode collapse held at N = 64: the tail leaves
        # the trust band before delta falls to 5 grid spacings, before the
        # collapse time 1.15367 (criterion 03), and the run stops at the
        # first accepted step that takes it out
        attempts = recording_step(monkeypatch)
        series, state = simulate(two_mode_field(4.0, 64), CAP_PARAMS,
                                 CAP_CONTROLS)
        assert series.terminal_status is TerminalStatus.RESOLUTION_CAP_HIT
        kept = accepted(attempts, state.field.coeffs)
        tails = [SpectralField(out.c).tail_magnitude() / np.max(np.abs(out.c))
                 for _, _, out in kept]
        assert max(tails[:-1]) <= dynamics.TAIL_TRUST < tails[-1]
        assert state.t == accumulated(dt for _, dt, _ in kept)
        assert state.step == len(kept)
        assert state.t < 1.15367
        assert state.field.grid_size == 64
        assert state.stop_reason.startswith("tail/peak = ")
        ratio = float(state.stop_reason.split()[2])
        assert ratio > dynamics.TAIL_TRUST
        assert f"N = 64, t = {state.t:.6g}" in state.stop_reason
        assert series.t[-1] == state.t

    def test_each_field_is_fitted_once(self, monkeypatch):
        # the capped run fits the sampled fields and, from the step whose
        # tail first exceeds TAIL_TOL on, every step's field: the sample
        # rows and the collapse rule share each fit
        fitted, tails, times = [], [], [0.0]

        def counted(field, *args, **kwargs):
            fitted.append(hash(field.coeffs.tobytes()))
            return fit(field, *args, **kwargs)

        def recorded(c, dt, rhs, lin=None, f0=None):
            out = step(c, dt, rhs, lin, f0)
            tail = SpectralField(out.c, Domain.CIRCLE).tail_magnitude()
            tails.append(tail / np.max(np.abs(out.c)))
            times.append(times[-1] + dt)
            return out

        fit, step = tracker.fit_fourier_decay, dynamics.rk8_step
        monkeypatch.setattr(tracker, "fit_fourier_decay", counted)
        monkeypatch.setattr(dynamics, "rk8_step", recorded)
        series, _ = simulate(two_mode_field(4.0, 64), CAP_PARAMS,
                             CAP_CONTROLS)
        first = int(np.argmax(np.array(tails) > dynamics.TAIL_TOL))
        expected = (np.count_nonzero(series.t < times[first + 1])
                    + len(tails) - first)
        assert len(set(fitted)) == len(fitted) == expected

    def test_non_finite_step_is_reported(self, monkeypatch):
        # the steps from the first two states succeed (a rejected attempt
        # is retried from the same state), the first from the third fails
        starts = []

        def failing_step(c, dt, rhs, lin=None, f0=None):
            if not starts or not np.array_equal(c, starts[-1]):
                starts.append(c)
            out = rk8_step(c, dt, rhs, lin, f0)
            return out if len(starts) < 3 else out._replace(
                c=np.full_like(out.c, np.nan))

        monkeypatch.setattr(dynamics, "rk8_step", failing_step)
        # sample_dt = t_end: the last finite state is sampled by the
        # final-state rule alone, after the failed trial's evaluation
        for sample_dt in (None, 10.0):
            starts = []
            series, state = simulate(two_mode_field(0.1, 64),
                                     GclmParams(a=0.5, sigma=1.0, nu=1.0),
                                     RunControls(t_end=10.0, n0=64,
                                                 sample_dt=sample_dt))
            assert series.terminal_status is TerminalStatus.STEP_FAILED
            assert state.step == 2
            assert state.stop_reason == (
                f"non-finite coefficients in the step from t = "
                f"{state.t:.6g} at N = 64")
            # the last finite state is recorded once, from its own field:
            # the failed trial's evaluation left its finite w in rhs.grid
            assert series.t[-1] == state.t
            assert np.count_nonzero(series.t == state.t) == 1
            assert series.max_abs_omega[-1] == np.max(np.abs(
                state.field.values()))

    @pytest.mark.parametrize("case", ["reached_t_end", "at_cap", "collapse",
                                      "refined_then_failed"])
    def test_final_fit_is_the_fit_of_the_final_field(self, monkeypatch,
                                                     case):
        st = exact.OnePairS1State(omega_m1_0=-0.5, v_c0=0.05, nu=1.0)
        runs = {
            # the last step is sampled by the final-state rule only
            "reached_t_end": (st.field(256), st.gclm_params(),
                              RunControls(t_end=0.01, n0=256, sample_dt=1.0)),
            # at n_max every step is fitted; the run ends on rule 3 there
            "at_cap": (two_mode_field(4.0, 256), CAP_PARAMS,
                       RunControls(t_end=1.4, n0=256, n_max=256)),
            "collapse": (two_mode_field(4.0, 64), CAP_PARAMS,
                         RunControls(t_end=1.4, n0=64, n_max=512)),
            # v_c0 = 0.05 needs more than 256 modes: the first step
            # refines, and the next one, at N = 512, fails; the final field
            # is then the padded t = 0 field, fitted by no sample row
            "refined_then_failed": (st.field(256), st.gclm_params(),
                                    RunControls(t_end=0.01, n0=256)),
        }
        if case == "refined_then_failed":
            def failing_step(c, dt, rhs, lin=None, f0=None):
                out = rk8_step(c, dt, rhs, lin, f0)
                return out if rhs.n == 256 else out._replace(
                    c=np.full_like(out.c, np.nan))

            monkeypatch.setattr(dynamics, "rk8_step", failing_step)
        series, state = simulate(*runs[case])
        try:
            expected = tracker.fit_fourier_decay(state.field)
        except tracker.SpectrumTooCleanError:
            expected = None
        assert state.fit == expected and expected is not None
        if case == "refined_then_failed":
            assert series.terminal_status is TerminalStatus.STEP_FAILED
            assert state.n_refinements == 1 and state.t == 0.0
            # the t = 0 row holds the fit at N = 256, on modes [64, 85];
            # the padded field is fitted on modes [128, 170]
            assert state.fit.k_window == (128, 170)
            assert series.p_fit[-1] != state.fit.p
            assert series.max_abs_omega[-1] == np.max(np.abs(
                state.field.values()))

    @pytest.mark.parametrize("case", ["circle", "line_u_from_grid",
                                      "line_u_transformed"])
    def test_rows_are_the_norms_of_the_observed_fields(self, case):
        # rows read w (and the line's u) from the step's rhs.grid; they
        # equal the norms transformed from each observed field bit for bit
        dp, sch = exact.DoublePoleState(omega_m2_0=4.0), exact.SchochetState()
        runs = {
            "circle": (two_mode_field(4.0, 64), CAP_PARAMS,
                       RunControls(t_end=1.4, n0=64, n_max=512)),
            "line_u_from_grid": (dp.field(64), dp.gclm_params(), RunControls(
                t_end=0.25 * dp.classify().t_c, n0=64)),
            "line_u_transformed": (sch.field(64), sch.gclm_params(),
                                   RunControls(t_end=0.5 * sch.classify().t_c,
                                               n0=64)),
        }
        observed = []
        series, state = simulate(*runs[case],
                                 observe=lambda t, f: observed.append((t, f)))
        assert np.array_equal([t for t, _ in observed], series.t)
        assert observed[-1][1] is state.field
        for i, (_, field) in enumerate(observed):
            rep = norms(field)
            assert series.max_abs_omega[i] == rep.linf
            assert series.l2[i] == rep.l2
            assert series.b0[i] == rep.b0
            assert series.energy[i] == rep.kinetic_energy
            assert series.n_modes[i] == field.grid_size

    def test_step_sampled_run_records_its_final_state(self):
        params = GclmParams(a=0.5, sigma=1.0, nu=1.0)
        series, state = simulate(two_mode_field(0.1, 64), params,
                                 RunControls(t_end=10.0, n0=64))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert series.t[-1] == state.t

    def test_sample_count_does_not_depend_on_step_size(self):
        # the small-data decay of the benchmark, at two steps below
        # sample_dt = 10/32, the second five times shorter (its own steps
        # are longer than sample_dt, where the grid rule samples less)
        runs = [simulate(two_mode_field(0.1, 64), DECAY_PARAMS,
                         RunControls(t_end=10.0, n0=64, dt_max=dt_max))
                for dt_max in (0.25, 0.05)]
        (coarse, coarse_state), (fine, fine_state) = runs
        assert fine_state.step > 4 * coarse_state.step
        assert len(fine) == len(coarse)

    def test_growth_trigger_spaces_samples_near_collapse(self, monkeypatch):
        # one sample per SAMPLE_GROWTH of max|w| at most: consecutive
        # samples of the final window differ by less than that factor
        # times the largest growth of a single step
        growth = []

        def traced_step(c, dt, rhs, lin=None, f0=None):
            out = rk8_step(c, dt, rhs, lin, f0)
            if np.all(np.isfinite(out.c)):
                amp = [np.max(np.abs(SpectralField(v, Domain.CIRCLE).values()))
                       for v in (c, out.c)]
                growth.append(amp[1] / amp[0])
            return out

        monkeypatch.setattr(dynamics, "rk8_step", traced_step)
        st = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        controls = RunControls(t_end=1.2 * st.classify().t_c, n0=128,
                               n_max=2048)
        series, _ = simulate(st.field(128), st.gclm_params(), controls)
        assert series.terminal_status is TerminalStatus.COLLAPSE_DETECTED
        amp = series.max_abs_omega[_fit_window(series)]
        assert np.all(amp[1:] / amp[:-1] < SAMPLE_GROWTH * max(growth))

    def test_off_grid_samples_grew_by_the_factor(self):
        # a sample off the time grid is due to growth alone: its max|w|
        # exceeds SAMPLE_GROWTH times the last sample's (the final row,
        # the end state, may be neither)
        st = exact.PeriodicPoleState(omega_m1_0=-3.0, v_c0=1.0, nu=1.0)
        controls = RunControls(t_end=1.2 * st.classify().t_c, n0=128,
                               n_max=2048)
        series, _ = simulate(st.field(128), st.gclm_params(), controls)
        t, amp = series.t[:-1], series.max_abs_omega[:-1]
        sample_dt = controls.t_end / SAMPLE_GRID
        off_grid = t[1:] < sample_dt * (t[:-1] // sample_dt + 1.0)
        assert np.count_nonzero(off_grid) >= 3
        assert np.all(amp[1:][off_grid] > SAMPLE_GROWTH * amp[:-1][off_grid])

    def test_rejected_step_is_retried_from_the_same_state(self, monkeypatch):
        attempts = recording_step(monkeypatch)
        forced = dynamics.rk8_step

        def first_rejected(c, dt, rhs, lin=None, f0=None):
            out = forced(c, dt, rhs, lin, f0)
            return out._replace(error=np.inf) if len(attempts) == 1 else out

        monkeypatch.setattr(dynamics, "rk8_step", first_rejected)
        _, state = simulate(two_mode_field(0.1, 64), DECAY_PARAMS,
                            RunControls(t_end=1.0, n0=64, dt_max=0.25))
        (c0, dt0, _), (c1, dt1, _) = attempts[:2]
        assert np.array_equal(c1, c0) and dt1 == 0.2 * dt0
        kept = accepted(attempts, state.field.coeffs)
        assert kept[0][2] is attempts[1][2]
        assert state.step == len(kept) == len(attempts) - 1
        assert state.t == accumulated(dt for _, dt, _ in kept) == 1.0

    def test_step_size_underflow_is_reported(self, monkeypatch):
        # every estimate above tolerance: each retry is five times shorter,
        # until the step no longer moves t
        dts = []

        def rejected(c, dt, rhs, lin=None, f0=None):
            dts.append(dt)
            return rk8_step(c, dt, rhs, lin, f0)._replace(error=np.inf)

        monkeypatch.setattr(dynamics, "rk8_step", rejected)
        series, state = simulate(two_mode_field(0.1, 64), DECAY_PARAMS,
                                 RunControls(t_end=10.0, n0=64))
        assert series.terminal_status is TerminalStatus.STEP_FAILED
        assert state.stop_reason == "step size underflow at t = 0, N = 64"
        assert state.step == 0 and state.t == 0.0
        assert all(b == 0.2 * a for a, b in zip(dts, dts[1:]))
        assert dts[-1] > 0.0 == 0.2 * dts[-1]

    def test_decay_matches_a_fine_step_reference(self):
        # the benchmark decay on its own steps against steps of at most
        # 1e-2, whose error is at round-off
        f0 = two_mode_field(0.1, 64)
        _, state = simulate(f0, DECAY_PARAMS, RunControls(t_end=10.0, n0=64))
        _, ref = simulate(f0, DECAY_PARAMS,
                          RunControls(t_end=10.0, n0=64, dt_max=1e-2))
        want = ref.field.values()
        err = np.max(np.abs(state.field.values() - want))
        assert err <= 1e-11 * np.max(np.abs(want))
        assert state.step <= 20

    def test_sigma_two_decay_is_not_held_at_the_stage_growth_bound(self):
        # criterion 05's sigma = 2 case: 4,267 steps at the old bound
        # 12/32^2, at most 600 under the round-off cap and error control
        _, state = simulate(two_mode_field(0.1, 32),
                            GclmParams(a=0.8, sigma=2.0, nu=1.0),
                            RunControls(t_end=50.0, n0=32))
        assert state.t == pytest.approx(50.0) and state.step <= 600

    @pytest.mark.parametrize("case", ["decay", "collapse"])
    def test_rhs_calls_are_twelve_per_attempt(self, monkeypatch, case):
        # one evaluation at t = 0 and after each refinement; every attempt,
        # rejected or not, then takes len(RK8_B) = 12: 11 stages and the
        # new state, reused as the next step's first stage
        runs = {
            "decay": (two_mode_field(0.1, 64), DECAY_PARAMS,
                      RunControls(t_end=10.0, n0=64)),
            "collapse": (two_mode_field(4.0, 64), CAP_PARAMS,
                         RunControls(t_end=1.4, n0=64, n_max=256)),
        }
        calls = []
        call = Rhs.__call__

        def counted(self, c, **kwargs):
            calls.append(self.n)
            return call(self, c, **kwargs)

        monkeypatch.setattr(Rhs, "__call__", counted)
        attempts = recording_step(monkeypatch)
        _, state = simulate(*runs[case])
        assert len(calls) == (len(RK8_B) * len(attempts) + 1
                              + state.n_refinements)
        if case == "decay":  # its first step is rejected
            assert len(attempts) > state.step + state.n_refinements
        else:
            assert state.n_refinements == 2

    @pytest.mark.parametrize("cfl", [0.5, 1.0])
    def test_line_steps_stay_stable_up_to_cfl_one(self, cfl):
        # sigma = 2 on the line: the dissipation limit would bind, so the
        # steps are Lawson ones; a step outside the stability interval
        # would read as tail growth and refine
        st = exact.SchochetState()
        t1 = 0.5 * st.classify().t_c
        series, state = simulate(st.field(64), st.gclm_params(),
                                 RunControls(t_end=t1, n0=64, cfl=cfl))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert state.n_refinements == 0
        assert state.step <= 200
        ref = st.advance(state.t).field(64).values()
        err = np.max(np.abs(state.field.values() - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12

    @pytest.mark.parametrize("cfl", [0.5, 1.0])
    def test_explicit_line_steps_stay_stable_up_to_cfl_one(self, cfl,
                                                           monkeypatch):
        # the same run without the basis: every step is explicit and at
        # the dissipation limit cfl * 6.39 / (2N)^2
        monkeypatch.setattr(spectral, "LINE_LAWSON_N_MAX", 0)
        st = exact.SchochetState()
        t1 = 0.5 * st.classify().t_c
        steps = treatment_steps(monkeypatch)
        series, state = simulate(st.field(64), st.gclm_params(),
                                 RunControls(t_end=t1, n0=64, cfl=cfl))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert state.n_refinements == 0
        assert not any(lawson for _, _, lawson in steps)
        limit = cfl * Rhs(Domain.LINE, st.gclm_params(), 64).line_limit
        assert len(steps) == state.step
        assert [dt for _, dt, _ in steps[:-1]] == [limit] * (state.step - 1)
        ref = st.advance(state.t).field(64).values()
        err = np.max(np.abs(state.field.values() - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12


def treatment_steps(monkeypatch):
    """Wrap dynamics.rk8_step; returns the list it fills with the
    (N, dt, Lawson or not) of every attempted step."""
    steps = []

    def recorded(c, dt, rhs, lin=None, f0=None):
        steps.append((rhs.n, dt, lin is not None))
        return rk8_step(c, dt, rhs, lin, f0)

    monkeypatch.setattr(dynamics, "rk8_step", recorded)
    return steps


def line_run_error(state, t0, final):
    """Relative sup error of a run from state.advance(t0) at its end."""
    ref = state.advance(t0 + final.t).field(final.field.grid_size).values()
    return np.max(np.abs(final.field.values() - ref)) / np.max(np.abs(ref))


class TestLineLawsonChoice:
    """A line step is Lawson exactly when the explicit limit of the line's
    dissipation would shorten it, and only at N <= LINE_LAWSON_N_MAX."""

    def test_schochet_run_takes_lawson_steps(self, monkeypatch):
        # the benchmark's run: sigma = 2, every explicit step would sit at
        # the dissipation limit (48 steps)
        st = exact.SchochetState()
        steps = treatment_steps(monkeypatch)
        series, final = simulate(st.field(64), st.gclm_params(),
                                 RunControls(t_end=0.5 * st.classify().t_c,
                                             n0=64))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert final.step <= 20 and final.n_refinements == 0
        rhs = Rhs(Domain.LINE, st.gclm_params(), 64)
        assert [lawson for _, _, lawson in steps] == [
            dt > rhs.line_limit for _, dt, _ in steps]
        assert sum(lawson for _, _, lawson in steps) >= final.step - 1
        assert line_run_error(st, 0.0, final) <= 1e-12

    def test_advection_bound_run_is_unchanged(self, monkeypatch, tmp_path):
        # the double pole (a = 1/2, sigma = 1) is bound by advection: its
        # run takes no Lawson step and writes the same series without the
        # basis
        st = exact.DoublePoleState(omega_m2_0=4.0)
        args = (st.field(64), st.gclm_params(),
                RunControls(t_end=0.25 * st.classify().t_c, n0=64))
        steps = treatment_steps(monkeypatch)
        series, final = simulate(*args)
        assert final.n_refinements == 1
        assert not any(lawson for _, _, lawson in steps)
        monkeypatch.setattr(spectral, "LINE_LAWSON_N_MAX", 0)
        series_0, final_0 = simulate(*args)
        series.to_csv(tmp_path / "series.csv")
        series_0.to_csv(tmp_path / "series_0.csv")
        assert ((tmp_path / "series.csv").read_bytes()
                == (tmp_path / "series_0.csv").read_bytes())
        assert np.array_equal(final.field.coeffs, final_0.field.coeffs)

    def test_refined_run_steps_explicitly_above_the_cap(self, monkeypatch):
        # at 0.9 t_c the Schochet field's tail at N = 256 is 3e-12 of its
        # peak: the first trial refines to 512, which has no basis
        st = exact.SchochetState()
        t0 = 0.9 * st.classify().t_c
        steps = treatment_steps(monkeypatch)
        series, final = simulate(st.advance(t0).field(256), st.gclm_params(),
                                 RunControls(t_end=5e-5, n0=256, n_max=512))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert final.n_refinements == 1 and final.field.grid_size == 512
        at_512 = [lawson for n, _, lawson in steps if n == 512]
        assert len(at_512) == final.step > 0 and not any(at_512)
        assert "line_basis" not in vars(operators(512, Domain.LINE))
        assert line_run_error(st, t0, final) <= 1e-12

    def test_criterion_01_run_takes_at_most_60_attempts(self, monkeypatch):
        # criterion 01 (N = 256 to half the collapse time): 753 explicit
        # steps, 48 Lawson ones
        st = exact.SchochetState()
        steps = treatment_steps(monkeypatch)
        series, final = simulate(st.field(256), st.gclm_params(),
                                 RunControls(t_end=0.5 * st.classify().t_c,
                                             n0=256))
        assert series.terminal_status is TerminalStatus.REACHED_T_END
        assert len(steps) <= 60
        assert line_run_error(st, 0.0, final) <= 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"t_end": 0.0}, {"cfl": -1.0}, {"cfl": 1.5}, {"n0": 128, "n_max": 64},
        {"sample_dt": 0.0}, {"sample_dt": -0.1}, {"dt_max": 0.0},
        {"n0": 100}, {"n0": 4}, {"n0": 64, "n_max": 100},
        {"t_end": np.inf}, {"t_end": np.nan}],
        ids=["t_end", "cfl", "cfl_above_one", "n_max", "sample_dt_zero",
             "sample_dt_negative", "dt_max_zero", "n0_not_power_of_two",
             "n0_below_eight", "n_max_not_power_of_two", "t_end_inf",
             "t_end_nan"])
    def test_invalid_controls_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunControls(**kwargs)
