"""Tests for the spectral representation and the basic operators."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclm.spectral import (
    Domain,
    GclmParams,
    SpectralField,
    c_omega_q,
    hilbert,
    norms,
    operators,
    read_snapshot,
    velocity_from_omega,
    velocity_line,
    write_snapshot,
)


#: v1 snapshot of exp(sin x) + cos(8x)/4 + sin(3x)/10 at N = 8, as written
#: by the full-spectrum (k = -N..N-1) implementation of write_snapshot
V1_N8 = """\
# gclm-field v1 domain=circle t=0.375
0.375
8
0.25000019921248073 0.0
3.29086805522744e-17 -1.6047366170057753e-06
-2.2488936772022128e-05 -1.6836579846918724e-18
3.2662114549015713e-17 0.0002714631684468463
0.002737120221566469 -5.551115123125783e-17
-4.9065389333867974e-18 0.027831575075648214
-0.1357476697670389 -5.71948092159497e-17
-6.066425616790331e-17 0.565159103992485
1.2660658777520082 0.0
-6.066425616790331e-17 -0.565159103992485
-0.1357476697670389 5.71948092159497e-17
-4.9065389333867974e-18 -0.027831575075648214
0.002737120221566469 5.551115123125783e-17
3.2662114549015713e-17 -0.0002714631684468463
-2.2488936772022128e-05 1.6836579846918724e-18
3.29086805522744e-17 1.6047366170057753e-06
"""


def sampled(func, n=128, domain=Domain.CIRCLE):
    return SpectralField.from_function(func, n, domain)


def derivative(f):
    """d/dx through the operator table's ik symbol."""
    return SpectralField(f.coeffs * f.ops.ik, f.domain)


def random_real_field(seed, n=128, domain=Domain.CIRCLE, decay=0.5):
    """Random band-limited real field with exponentially decaying modes."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, n // 4)
    c = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) \
        * np.exp(-decay * k)
    coeffs = np.zeros(n // 2 + 1, dtype=complex)
    coeffs[k] = c
    return SpectralField(coeffs, domain)


class TestSpectralField:
    def test_grid_matches_convention(self):
        f = sampled(np.sin, 16)
        x = f.grid()
        assert x[0] == pytest.approx(-np.pi)
        # grid_size N means 2N collocation points, spacing pi/N
        assert x.size == 32
        assert np.allclose(np.diff(x), np.pi / 16)

    def test_from_function_round_trip(self):
        f = sampled(lambda x: np.sin(x) + 0.3 * np.cos(3 * x), 64)
        assert np.allclose(f.values(),
                           np.sin(f.grid()) + 0.3 * np.cos(3 * f.grid()),
                           atol=1e-14)

    def test_from_grid_inverts_values(self):
        g = random_real_field(0)
        h = SpectralField.from_grid(g.values(), g.domain)
        assert np.allclose(g.coeffs, h.coeffs, atol=1e-14)

    def test_sine_coefficients(self):
        # sin x = (e^{ix} - e^{-ix}) / 2i
        f = sampled(np.sin, 32)
        assert f.coeffs[1] == pytest.approx(-0.5j, abs=1e-15)
        others = np.abs(f.coeffs)
        others[1] = 0.0
        assert np.max(others) < 1e-15

    def test_zero_pad_preserves_grid_values(self):
        f = random_real_field(3, n=64)
        g = f.zero_pad()
        assert g.grid_size == 2 * f.grid_size
        # old grid points are every other new grid point
        assert np.allclose(g.values()[::2], f.values(), atol=1e-13)

    def test_zero_pad_keeps_grid_values_with_nyquist_mode(self):
        # random grid values carry a nonzero k = N mode
        rng = np.random.default_rng(20)
        f = SpectralField.from_grid(rng.standard_normal(64))
        assert abs(f.coeffs[-1]) > 1e-3
        g = f.zero_pad()
        assert np.allclose(g.values()[::2], f.values(), rtol=0.0, atol=1e-14)

    def test_zero_pad_preserves_coefficients(self):
        f = random_real_field(4, n=64)
        g = f.zero_pad(4)
        for kk in (0, 3, 5, 17):
            assert g.coeffs[kk] == pytest.approx(f.coeffs[kk], abs=1e-16)

    def test_tail_magnitude_of_band_limited_field(self):
        f = random_real_field(5, n=64)
        assert f.zero_pad().tail_magnitude() < 1e-15

    def test_grid_size_must_be_even(self):
        with pytest.raises(ValueError):
            SpectralField(np.zeros(34, dtype=complex), Domain.CIRCLE)

    def test_full_spectrum_length_is_rejected(self):
        # 2N coefficients (k = -N..N-1) are not the N+1 of k = 0..N
        with pytest.raises(ValueError):
            SpectralField(np.zeros(64, dtype=complex), Domain.CIRCLE)


class TestOperatorTable:
    def test_one_shared_table_per_size_and_domain(self):
        assert operators(64, Domain.CIRCLE) is operators(64, Domain.CIRCLE)
        assert operators(64, Domain.LINE) is not operators(64, Domain.CIRCLE)
        assert random_real_field(18).ops is operators(64, Domain.CIRCLE)

    def test_arrays_are_read_only(self):
        ops = operators(32, Domain.LINE)
        for a in (ops.k, ops.kabs, ops.ik, ops.mult, ops.phase, ops.hilbert,
                  ops.velocity, ops.stack, ops.grid, ops.tail, ops.jac,
                  ops.singular):
            with pytest.raises(ValueError):
                a[0] = a[1]

    def test_transforms_invert_each_other(self):
        f = random_real_field(19)
        assert np.allclose(f.ops.spec(f.ops.phys(f.coeffs)), f.coeffs,
                           atol=1e-15)

    @pytest.mark.parametrize("n", [64, 512])
    def test_stacked_transform_matches_one_transform_per_field(self, n):
        # w, H w, u and w_x from one 2-D irfft, bit for bit
        ops = operators(n, Domain.CIRCLE)
        c = random_real_field(20, 2 * n, decay=0.01).coeffs
        one_each = [ops.phys(c), ops.phys(ops.hilbert * c),
                    ops.phys(ops.velocity * c), ops.phys(ops.ik * c)]
        assert np.array_equal(ops.phys_stack(c, 4), one_each)
        assert np.array_equal(ops.phys_stack(c, 2), one_each[:2])


class TestOperators:
    def test_hilbert_of_sine(self):
        # H sin = -cos with the symbol -i sgn(k)
        f = sampled(np.sin, 64)
        assert np.allclose(hilbert(f).values(), -np.cos(f.grid()),
                           atol=1e-13)

    def test_hilbert_of_cosine(self):
        f = sampled(np.cos, 64)
        assert np.allclose(hilbert(f).values(), np.sin(f.grid()), atol=1e-13)

    def test_hilbert_kills_the_mean(self):
        f = sampled(lambda x: np.ones_like(x), 32)
        assert np.max(np.abs(hilbert(f).values())) < 1e-14

    def test_hilbert_squared_is_minus_projection(self):
        f = random_real_field(6)
        f.coeffs[0] = 0.7  # add a mean to exercise the projection
        hh = hilbert(hilbert(f))
        expect = f.coeffs.copy()
        expect[0] = 0.0  # P0 removes the mean
        assert np.allclose(hh.coeffs, -expect, atol=1e-15)

    def test_lambda_sigma_zero_is_identity(self):
        ops = operators(64, Domain.CIRCLE)
        assert np.array_equal(ops.kabs**0.0, np.ones(65))

    def test_lambda_squared_is_minus_laplacian(self):
        ops = operators(64, Domain.CIRCLE)
        assert np.array_equal(ops.kabs**2.0, -(ops.ik**2))

    def test_lambda_one_is_hilbert_of_derivative(self):
        f = random_real_field(9)
        assert np.allclose(f.ops.kabs * f.coeffs,
                           hilbert(derivative(f)).coeffs, atol=1e-13)

    def test_derivative_of_sine(self):
        f = sampled(np.sin, 64)
        assert np.allclose(derivative(f).values(), np.cos(f.grid()),
                           atol=1e-13)

    def test_velocity_from_omega_sine(self):
        # u_x = H w; w = sin x gives u = -sin x (zero-mean normalisation)
        f = sampled(np.sin, 64)
        u = velocity_from_omega(f)
        assert np.allclose(u.values(), -np.sin(f.grid()), atol=1e-13)

    def test_velocity_gradient_identity(self):
        f = random_real_field(10)
        u = velocity_from_omega(f)
        assert np.allclose(derivative(u).coeffs, hilbert(f).coeffs,
                           atol=1e-13)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hilbert_is_skew_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        f = random_real_field(rng.integers(2**31))
        g = random_real_field(rng.integers(2**31))
        dx = 2.0 * np.pi / f.grid_size
        ip = lambda a, b: np.sum(a.values() * b.values()) * dx
        assert ip(hilbert(f), g) == pytest.approx(-ip(f, hilbert(g)),
                                                  abs=1e-12)


class TestLineOperators:
    def test_c_omega_q_of_sine(self):
        # C[w] = -(1/2pi) pv-int w(q) tan(q/2) dq = -1 for w = sin q
        f = sampled(np.sin, 64, Domain.LINE)
        assert c_omega_q(f) == pytest.approx(-1.0, abs=1e-14)

    def test_c_omega_q_vanishes_for_even_cos(self):
        f = sampled(lambda q: np.cos(2 * q), 64, Domain.LINE)
        assert abs(c_omega_q(f)) < 1e-14

    def test_velocity_line_boundary_condition(self):
        f = random_real_field(11, domain=Domain.LINE)
        u = velocity_line(f)
        vals = u.values()
        assert abs(vals[0]) < 1e-12  # q = -pi is the first grid point

    def test_velocity_line_gradient_identity(self):
        # (1 + cos q) u_q = H w + C[w]; holds for data whose velocity
        # decays at both ends (double-pole far field w ~ 1/x^2)
        from gclm.exact import DoublePoleState

        def identity_error(n):
            f = DoublePoleState().field(n)
            u = velocity_line(f)
            q = f.grid()
            lhs = (1.0 + np.cos(q)) * derivative(u).values()
            rhs = hilbert(f).values() + c_omega_q(f)
            interior = np.abs(np.abs(q) - np.pi) > 0.5
            return np.max(np.abs(lhs - rhs)[interior])

        assert identity_error(128) < 1e-8
        # the residual comes from the singular-node fill and shrinks fast
        assert identity_error(256) < identity_error(128) / 10.0

    def test_velocity_line_against_closed_form(self):
        # double-pole data w = i w2 [(x-iv)^-2 - c.c.] has u = 2 w2 x/(x^2+v^2)
        from gclm.exact import DoublePoleState

        st = DoublePoleState()
        f = st.field(256)
        x = np.tan(f.grid() / 2.0)
        u_exact = 2.0 * st.omega_m2 * x / (x**2 + st.v_c**2)
        assert np.max(np.abs(velocity_line(f).values() - u_exact)) < 1e-10


class TestNorms:
    def test_parseval(self):
        f = random_real_field(13)
        vals = f.values()
        dx = np.pi / f.grid_size
        l2_grid = np.sqrt(np.sum(vals**2) * dx)
        assert norms(f).l2 == pytest.approx(l2_grid, rel=1e-12)

    def test_linf_is_grid_max(self):
        f = random_real_field(14)
        assert norms(f).linf == pytest.approx(np.max(np.abs(f.values())))

    def test_b0_dominates_sup(self):
        f = random_real_field(15)
        rep = norms(f)
        assert rep.b0 >= rep.linf - 1e-12

    def test_b0_of_sine(self):
        f = sampled(np.sin, 32)
        assert norms(f).b0 == pytest.approx(1.0, abs=1e-14)

    def test_kinetic_energy_circle(self):
        # w = sin x: u = -sin x, E = (1/2) int u^2 = pi/2
        f = sampled(np.sin, 64)
        assert norms(f).kinetic_energy == pytest.approx(np.pi / 2.0,
                                                        rel=1e-12)

    def test_half_spectrum_norms_match_full_spectrum_sums(self):
        # the k = 0..N sums, weighted by multiplicity, against plain sums
        # over the k = -N..N-1 spectrum that write_snapshot expands to
        rng = np.random.default_rng(21)
        f = SpectralField.from_grid(rng.standard_normal(64))
        buf = io.StringIO()
        write_snapshot(f, 0.0, buf)
        rows = np.loadtxt(io.StringIO(buf.getvalue()), skiprows=3)
        c = rows[:, 0] + 1j * rows[:, 1]
        k = np.arange(-32, 32)
        ek = np.pi * np.sum(np.abs(c[k != 0]) ** 2 / k[k != 0] ** 2.0)
        rep = norms(f)
        assert rep.b0 == pytest.approx(np.sum(np.abs(c)), rel=1e-14)
        assert rep.l2 == pytest.approx(
            np.sqrt(2.0 * np.pi * np.sum(np.abs(c) ** 2)), rel=1e-14)
        assert rep.kinetic_energy == pytest.approx(ek, rel=1e-14)


class TestSnapshots:
    def test_round_trip_is_exact(self):
        f = random_real_field(16, domain=Domain.LINE)
        buf = io.StringIO()
        write_snapshot(f, 0.625, buf)
        buf.seek(0)
        g, t = read_snapshot(buf)
        assert t == 0.625
        assert g.domain is Domain.LINE
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_numpy_scalar_time_round_trips(self):
        # simulate keeps t as np.float64, whose repr is 'np.float64(...)'
        f = random_real_field(18)
        buf = io.StringIO()
        write_snapshot(f, np.float64(1.1536543612986534), buf)
        buf.seek(0)
        _, t = read_snapshot(buf)
        assert t == 1.1536543612986534

    def test_v1_file_reads_back_and_rewrites_byte_identical(self):
        f, t = read_snapshot(io.StringIO(V1_N8))
        assert (t, f.grid_size, f.domain) == (0.375, 8, Domain.CIRCLE)
        x = f.grid()
        want = np.exp(np.sin(x)) + 0.25 * np.cos(8 * x) + 0.1 * np.sin(3 * x)
        assert np.allclose(f.values(), want, rtol=0.0, atol=1e-14)
        buf = io.StringIO()
        write_snapshot(f, t, buf)
        assert buf.getvalue() == V1_N8

    @pytest.mark.parametrize("line, text", [
        (5, "-2.2e-05 -1.6836579846918724e-18"),  # k = -6 not conj(w_6)
        (3, "0.25000019921248073 1e-3"),          # k = -N not real
        (11, "1.2660658777520082 1e-3"),          # k = 0 not real
    ])
    def test_file_of_a_non_real_field_is_rejected(self, line, text):
        lines = V1_N8.splitlines()
        lines[line] = text
        with pytest.raises(ValueError):
            read_snapshot(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("header", [
        "# gclm-field v1 domain=circel t=0.375",  # misspelt domain
        "# gclm-field v1 t=0.375",                # no domain
    ])
    def test_unknown_domain_is_rejected(self, header):
        text = V1_N8.replace("# gclm-field v1 domain=circle t=0.375", header)
        with pytest.raises(ValueError):
            read_snapshot(io.StringIO(text))

    def test_header_names_domain_and_time(self):
        f = random_real_field(17)
        buf = io.StringIO()
        write_snapshot(f, 1.5, buf)
        head = buf.getvalue().splitlines()[0]
        assert "circle" in head and "t=1.5" in head


class TestParams:
    def test_validate_rejects_negative_nu(self):
        with pytest.raises(ValueError):
            GclmParams(a=0.0, sigma=1.0, nu=-1.0).validate(Domain.CIRCLE)

    def test_validate_rejects_fractional_sigma_on_line(self):
        with pytest.raises(ValueError):
            GclmParams(a=0.0, sigma=1.5, nu=1.0).validate(Domain.LINE)

    def test_validate_rejects_mean_on_line(self):
        with pytest.raises(ValueError):
            GclmParams(a=0.0, sigma=1.0, nu=1.0,
                       omega_av=0.5).validate(Domain.LINE)

    def test_valid_params_pass(self):
        GclmParams(a=0.5, sigma=1.0, nu=1.0).validate(Domain.CIRCLE)
        GclmParams(a=0.8, sigma=2.0, nu=1.0).validate(Domain.CIRCLE)
