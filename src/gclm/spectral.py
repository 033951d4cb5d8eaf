"""Real periodic fields in Fourier representation and their operator table.

A real field w(x) on the uniform grid x_j = -pi + pi*j/N (2N points) is
stored through its complex Fourier coefficients w_k for k = 0..N only; the
k < 0 half is w_{-k} = conj(w_k), so realness holds by construction and
the transforms are real-input ones. On the compactified line the same
machinery is used in the variable q, with x = tan(q/2). Everything that
depends only on (N, domain) -- wavenumbers, Fourier symbols, grid, line
Jacobian and the transforms -- lives in one cached :class:`Operators`
table, obtained with :func:`operators`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "SpectralField",
    "GclmParams",
    "NormReport",
    "hilbert",
    "velocity_from_omega",
    "velocity_line",
    "c_omega_q",
    "norms",
    "write_snapshot",
    "read_snapshot",
]

#: grid points this close to q = +-pi (in 1 + cos q) are treated as singular
EPS_JACOBIAN = 1e-10

#: fraction of the spectrum counted as the "tail" band
TAIL_BAND_FRACTION = 0.125


class Domain(enum.Enum):
    CIRCLE = "circle"
    LINE = "line"


def _check_grid_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid_size must be a power of two >= 8, got {n}")


class Operators:
    """Wavenumbers, Fourier symbols, grid and transforms for one (N, domain).

    Coefficient arrays hold the N+1 wavenumbers k = 0..N of a real field.
    Every array is read-only: one table is shared by all fields, right-hand
    sides and diagnostics at this resolution.
    """

    def __init__(self, grid_size: int, domain: Domain):
        _check_grid_size(grid_size)
        m = 2 * grid_size
        self.k = np.arange(grid_size + 1)
        self.kabs = self.k.astype(float)
        self.ik = 1j * self.kabs
        #: how often |w_k| occurs in the full spectrum k = -N..N-1: 1 at
        #: k = 0 and k = N, 2 elsewhere (w_{-k} = conj(w_k))
        self.mult = np.full(grid_size + 1, 2.0)
        self.mult[[0, -1]] = 1.0
        # The grid starts at -pi, so physical<->spectral transforms carry the
        # phase factor e^{-ik pi} = (-1)^k relative to a plain FFT.
        self.phase = np.where(self.k % 2 == 0, 1.0, -1.0)
        #: Hilbert transform -i sgn(k); the mean is annihilated
        self.hilbert = -1j * np.sign(self.k)
        #: zero-mean circle velocity u_k = H(w)_k / (ik) = -w_k / |k|
        self.velocity = np.divide(-1.0, self.kabs,
                                  out=np.zeros(grid_size + 1),
                                  where=self.k != 0)
        #: symbol x phase rows of w, H w, u and w_x, for the stacked
        #: inverse transform of :meth:`phys_stack`
        self.stack = np.array([self.phase, self.hilbert * self.phase,
                               self.velocity * self.phase,
                               self.ik * self.phase])
        #: collocation nodes x_j (or q_j on the line) in [-pi, pi)
        self.grid = -np.pi + 2.0 * np.pi * np.arange(m) / m
        #: top TAIL_BAND_FRACTION of wavenumbers
        self.tail = self.kabs >= (1.0 - TAIL_BAND_FRACTION) * grid_size
        arrays = [self.k, self.kabs, self.ik, self.mult, self.phase,
                  self.hilbert, self.velocity, self.stack, self.grid,
                  self.tail]
        if domain is Domain.LINE:
            #: dx/dq = 1 / (1 + cos q); it vanishes at the node q = -pi
            self.jac = 1.0 + np.cos(self.grid)
            self.singular = self.jac < EPS_JACOBIAN
            arrays += [self.jac, self.singular]
        for a in arrays:
            a.setflags(write=False)

    def phys(self, c: np.ndarray) -> np.ndarray:
        """Grid values of the real field with coefficients c (k = 0..N).

        The imaginary parts of the k = 0 and k = N coefficients have no
        grid values and are ignored.
        """
        return np.fft.irfft(c * self.phase, self.grid.size, norm="forward")

    def phys_stack(self, c: np.ndarray, rows: int) -> np.ndarray:
        """Grid values of the first ``rows`` of w, H w, u and w_x for the
        coefficients c, from one 2-D inverse transform (one row each)."""
        return np.fft.irfft(self.stack[:rows] * c, self.grid.size,
                            norm="forward")

    def spec(self, v: np.ndarray) -> np.ndarray:
        """Coefficients k = 0..N of the grid values v."""
        return np.fft.rfft(v, norm="forward") * self.phase

    def over_jacobian(self, v: np.ndarray) -> np.ndarray:
        """v / (1 + cos q) on the line grid, with the singular node at
        q = -pi filled by 4th-order symmetric interpolation from its
        periodic neighbours (the node is isolated)."""
        out = np.divide(v, self.jac, out=np.zeros_like(v),
                        where=~self.singular)
        m = out.size
        for j in np.nonzero(self.singular)[0]:
            f1 = out[(j + 1) % m] + out[(j - 1) % m]
            f2 = out[(j + 2) % m] + out[(j - 2) % m]
            out[j] = (4.0 * f1 - f2) / 6.0
        return out

    def line_velocity(self, jac_uq: np.ndarray) -> np.ndarray:
        """Grid values of the line velocity from those of (1 + cos q) u_q.

        The caller passes jac_uq = H^q w + C[w] = H^q w - H^q w(-pi) (see
        :func:`c_omega_q`). The quotient is formed in physical space and
        u is obtained by spectral integration with the constant fixed so
        u(+-pi) = 0 (u vanishes at x = +-infinity, matching the exact
        solutions).
        """
        uq_hat = self.spec(self.over_jacobian(jac_uq))
        u = self.phys(np.divide(uq_hat, self.ik, out=np.zeros_like(uq_hat),
                                where=self.k != 0))
        return u - u[0]  # grid node 0 is q = -pi


@functools.lru_cache(maxsize=32)
def operators(grid_size: int, domain: Domain, /) -> Operators:
    """The shared operator table of grid size N on the given domain.

    Positional-only, so that every call hits the same cache key.
    """
    return Operators(grid_size, domain)


@dataclass
class SpectralField:
    """Fourier representation of a real field on 2N uniform grid points.

    ``coeffs`` holds the N+1 coefficients w_k, k = 0..N; the rest of the
    spectrum is w_{-k} = conj(w_k), and the k = N mode is the one that
    k = -N aliases to on the grid.
    """

    coeffs: np.ndarray
    domain: Domain = Domain.CIRCLE

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1:
            raise ValueError("coeffs must be a 1d array of N+1 coefficients")
        _check_grid_size(self.coeffs.size - 1)

    @property
    def grid_size(self) -> int:
        """N; the field carries the modes k = -N..N-1 on 2N points."""
        return self.coeffs.size - 1

    @property
    def n_points(self) -> int:
        return 2 * self.grid_size

    @property
    def ops(self) -> Operators:
        """The operator table of this field's grid size and domain."""
        return operators(self.grid_size, self.domain)

    def grid(self) -> np.ndarray:
        """Collocation nodes x_j (or q_j on the line) in [-pi, pi)."""
        return self.ops.grid

    def values(self) -> np.ndarray:
        return self.ops.phys(self.coeffs)

    @classmethod
    def from_grid(cls, values, domain: Domain = Domain.CIRCLE) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size % 2:
            raise ValueError("grid values must be a 1d array of even length")
        return cls(operators(values.size // 2, domain).spec(values), domain)

    @classmethod
    def from_function(cls, func, grid_size: int,
                      domain: Domain = Domain.CIRCLE) -> "SpectralField":
        return cls.from_grid(func(operators(grid_size, domain).grid), domain)

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.domain)

    def zero_pad(self, factor: int = 2) -> "SpectralField":
        """Double (or more) the resolution by zero padding; grid values are
        unchanged up to round-off (Fourier interpolation)."""
        n = self.grid_size
        out = np.zeros(n * factor + 1, dtype=complex)
        out[:n] = self.coeffs[:n]
        out[n] = 0.5 * self.coeffs[n].real  # w_N splits over k = +-N
        return SpectralField(out, self.domain)

    def tail_magnitude(self) -> float:
        """max |w_k| over the top TAIL_BAND_FRACTION of wavenumbers."""
        return float(np.max(np.abs(self.coeffs[self.ops.tail])))


@dataclass
class GclmParams:
    """Equation parameters: w_t = -a u w_x + w H(w) - nu Lambda^sigma w."""

    a: float = 0.0
    sigma: float = 1.0
    nu: float = 1.0
    omega_av: float = 0.0

    def validate(self, domain: Domain) -> None:
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if domain is Domain.LINE:
            if self.sigma not in (0, 1, 2):
                raise ValueError(
                    "on the compactified line sigma must be one of {0, 1, 2}")
            if self.omega_av != 0.0:
                raise ValueError("omega_av is fixed to 0 on the line")


@dataclass
class NormReport:
    l2: float
    linf: float
    b0: float
    mean: float
    kinetic_energy: float
    b0_tail: float = 0.0
    ek_truncated: bool = False  # line quadrature saw mass near q = +-pi


def hilbert(f: SpectralField) -> SpectralField:
    """Hilbert transform: multiply by -i sgn(k); the mean is annihilated."""
    return SpectralField(f.coeffs * f.ops.hilbert, f.domain)


def velocity_from_omega(f: SpectralField) -> SpectralField:
    """Zero-mean velocity on the circle: u_k = H(w)_k / (ik), u_0 = 0."""
    return SpectralField(f.coeffs * f.ops.velocity, f.domain)


def c_omega_q(f: SpectralField) -> float:
    """Constant making H^q w + C vanish at q = +-pi (line velocity recovery).

    Equals -(1/2pi) PV int w(q') tan(q'/2) dq', evaluated spectrally as
    -H^q w (pi) so the grid singularity at q' = +-pi never appears.
    """
    ops = f.ops
    return float(-np.sum(ops.mult * (ops.hilbert * f.coeffs * ops.phase).real))


def velocity_line(f: SpectralField) -> SpectralField:
    """Velocity on the compactified line from (1+cos q) u_q = H^q w + C."""
    ops = f.ops
    hw = ops.phys(ops.hilbert * f.coeffs)
    return SpectralField.from_grid(ops.line_velocity(hw - hw[0]), f.domain)


def norms(f: SpectralField) -> NormReport:
    """L2, Linf, Wiener (B0) norm, mean and kinetic energy of the field."""
    ops = f.ops
    c = f.coeffs
    absc = np.abs(c)
    b0 = float(np.sum(ops.mult * absc))
    vals = ops.phys(c)
    linf = float(np.max(np.abs(vals)))
    mean = float(c[0].real)
    ek_truncated = False
    if f.domain is Domain.CIRCLE:
        l2 = float(np.sqrt(2.0 * np.pi * np.sum(ops.mult * absc**2)))
        ek = float(np.pi * np.sum(ops.mult * np.abs(ops.velocity * c) ** 2))
    else:
        # physical (x-space) quadratures: dx = dq / (1 + cos q)
        dq = 2.0 * np.pi / f.n_points
        l2 = float(np.sqrt(np.sum(ops.over_jacobian(vals**2)) * dq))
        hw = ops.phys(ops.hilbert * c)
        integrand = ops.over_jacobian(ops.line_velocity(hw - hw[0]) ** 2)
        ek = 0.5 * float(np.sum(integrand) * dq)
        # quadrature is untrusted when the integrand has not decayed at the
        # nodes next to q = +-pi
        if np.max(integrand[[1, -1]]) > 1e-8 * max(np.max(integrand), 1e-300):
            ek_truncated = True
    return NormReport(l2=l2, linf=linf, b0=b0, mean=mean, kinetic_energy=ek,
                      b0_tail=f.tail_magnitude(), ek_truncated=ek_truncated)


# ---------------------------------------------------------------------------
# snapshot file format: '# gclm-field v1 domain=<circle|line> t=<...>',
# then time, N, and 2N coefficients for k = -N..N-1 as 're im' lines. The
# k = 0..N half is expanded to this full spectrum on write and folded back
# on read.

def write_snapshot(f: SpectralField, t: float, fh) -> None:
    own = isinstance(fh, (str, bytes))
    stream = open(fh, "w") if own else fh
    try:
        n = f.grid_size
        t = repr(float(t))  # a numpy scalar's repr is 'np.float64(...)'
        stream.write(f"# gclm-field v1 domain={f.domain.value} t={t}\n")
        stream.write(f"{t}\n{n}\n")
        c = f.coeffs
        # k = -N is the real Nyquist coefficient itself, k = -N+1..-1 the
        # conjugates of k = N-1..1
        ordered = np.concatenate([c[n:], np.conj(c[n - 1:0:-1]), c[:n]])
        for z in ordered:
            stream.write(f"{float(z.real)!r} {float(z.imag)!r}\n")
    finally:
        if own:
            stream.close()


def read_snapshot(fh) -> tuple[SpectralField, float]:
    """Read a v1 snapshot; raises ValueError unless the header names a
    known domain and the coefficients are those of a real field (to 1e-12
    of the largest)."""
    own = isinstance(fh, (str, bytes))
    stream = open(fh, "r") if own else fh
    try:
        header = stream.readline().strip()
        if not header.startswith("# gclm-field v1"):
            raise ValueError(f"not a gclm-field snapshot: {header!r}")
        tokens = dict(tok.split("=", 1) for tok in header.split()
                      if "=" in tok)
        domain = Domain(tokens.get("domain"))  # ValueError unless known
        t = float(stream.readline())
        n = int(stream.readline())
        _check_grid_size(n)
        full = np.zeros(2 * n, dtype=complex)  # k = -N..N-1
        for i in range(2 * n):
            re, im = stream.readline().split()
            full[i] = float(re) + 1j * float(im)
    finally:
        if own:
            stream.close()
    tol = 1e-12 * np.max(np.abs(full))
    if np.max(np.abs(full[1:n] - np.conj(full[:n:-1]))) > tol:
        raise ValueError("snapshot coefficients k < 0 are not the conjugates "
                         "of k > 0: not a real field")
    if max(abs(full[0].imag), abs(full[n].imag)) > tol:
        raise ValueError("snapshot coefficients k = 0 and k = -N must be real")
    return SpectralField(np.append(full[n:], full[0]), domain), t
