"""Real periodic fields in Fourier representation and their operator table.

A real field w(x) on the uniform grid x_j = -pi + pi*j/N (2N points) is
stored through its complex Fourier coefficients w_k for k = 0..N only; the
k < 0 half is w_{-k} = conj(w_k), so realness holds by construction and
the transforms are real-input ones. On the compactified line the same
machinery is used in the variable q, with x = tan(q/2). Everything that
depends only on (N, domain) -- wavenumbers, Fourier symbols, grid, line
Jacobian and the transforms -- lives in one cached :class:`Operators`
table, obtained with :func:`operators`; on the line, for N up to
LINE_LAWSON_N_MAX, the table also builds on first use the eigenbasis of its
dissipation (:class:`LineBasis`).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "SpectralField",
    "GclmParams",
    "LINE_LAWSON_N_MAX",
    "LineBasis",
    "NormReport",
    "norms",
    "write_snapshot",
    "read_snapshot",
]

#: fraction of the spectrum counted as the "tail" band
TAIL_BAND_FRACTION = 0.125

#: the grid fields of the equation that :meth:`Operators.fields` returns
FIELDS = ("w", "ux", "u", "wx")

#: largest N whose line table builds its :class:`LineBasis`: the build takes
#: 18, 39 and 104 ms at N = 64, 128 and 256, and a stage's two changes of
#: frame 7, 13 and 49 us, against an RHS evaluation of 20 to 35 us
LINE_LAWSON_N_MAX = 256


class Domain(enum.Enum):
    CIRCLE = "circle"
    LINE = "line"


def check_grid_size(n: int, name: str = "grid_size") -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a power of two >= 8, got {n}")


class Operators:
    """Wavenumbers, Fourier symbols, grid and transforms for one (N, domain).

    Coefficient arrays hold the N+1 wavenumbers k = 0..N of a real field.
    Every array is read-only: one table is shared by all fields, right-hand
    sides and diagnostics at this resolution.
    """

    def __init__(self, grid_size: int, domain: Domain):
        check_grid_size(grid_size)
        m = 2 * grid_size
        self.domain = domain
        self.k = np.arange(grid_size + 1)
        self.kabs = self.k.astype(float)
        self.ik = 1j * self.kabs
        #: how often |w_k| occurs in the full spectrum k = -N..N-1: 1 at
        #: k = 0 and k = N, 2 elsewhere (w_{-k} = conj(w_k))
        self.mult = np.full(grid_size + 1, 2.0)
        self.mult[[0, -1]] = 1.0
        # The grid starts at -pi, so transforms carry the phase factor
        # e^{-ik pi} = (-1)^k relative to a plain FFT (complex: faster)
        self.phase = np.where(self.k % 2 == 0, 1.0 + 0j, -1.0)
        self.spec_phase = self.phase / m
        #: Hilbert transform -i sgn(k); the mean is annihilated
        self.hilbert = -1j * np.sign(self.k)
        #: zero-mean circle velocity u_k = H(w)_k / (ik) = -w_k / |k|
        self.velocity = np.divide(-1.0, self.kabs,
                                  out=np.zeros(grid_size + 1),
                                  where=self.k != 0)
        #: symbol x phase rows of w, H w, u and w_q for the stacked inverse
        #: transform of :meth:`fields`; on the line the u row is H^q w, the
        #: u_x that :meth:`line_velocity` integrates
        u_row = self.velocity if domain is Domain.CIRCLE else self.hilbert
        self.stack = np.array([self.phase, self.hilbert * self.phase,
                               u_row * self.phase, self.ik * self.phase])
        #: collocation nodes x_j (or q_j on the line) in [-pi, pi)
        self.grid = -np.pi + 2.0 * np.pi * np.arange(m) / m
        #: top TAIL_BAND_FRACTION of wavenumbers
        self.tail = self.kabs >= (1.0 - TAIL_BAND_FRACTION) * grid_size
        #: dq/dx, which turns a grid derivative into an x one: 1 on the
        #: circle, 1 + cos q on the line (x = tan(q/2)), where it is exactly
        #: 0.0 at node 0, q = -pi, and positive at every other node
        self.jac = (1.0 + np.cos(self.grid) if domain is Domain.LINE
                    else np.ones(m))
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        self._rows = {}  # rows of stack per selection of fields()

    def phys(self, c: np.ndarray) -> np.ndarray:
        """Grid values of the real field with coefficients c (k = 0..N).

        The imaginary parts of the k = 0 and k = N coefficients have no
        grid values and are ignored.
        """
        return np.fft.irfft(c * self.phase, self.grid.size, norm="forward")

    def spec(self, v: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients k = 0..N of the grid values v, into ``out`` when
        given: numpy's rfft times phase / 2N in place (its norm="forward"
        would cost a division per call)."""
        out = np.fft.rfft(v, out=out)
        out *= self.spec_phase
        return out

    def over_jacobian(self, v: np.ndarray) -> np.ndarray:
        """v / (1 + cos q) on the line grid. The divisor is 0.0 only at
        node 0, q = -pi; that value is filled by 4th-order symmetric
        interpolation from its periodic neighbours."""
        out = np.empty_like(v)
        np.divide(v[1:], self.jac[1:], out=out[1:])
        out[0] = (4.0 * (out[1] + out[-1]) - (out[2] + out[-2])) / 6.0
        return out

    def times_jacobian(self, f: np.ndarray) -> np.ndarray:
        """Coefficients of (1 + cos q) times the field with coefficients f.

        On the 2N grid the product is the circulant [1/2, 1, 1/2] over the
        modes k = -N..N-1: g_k = f_k + (f_{k-1} + f_{k+1}) / 2 for
        0 < k < N, g_0 = Re f_0 + Re f_1 and g_N = Re f_N + Re f_{N-1}
        (k = N + 1 aliases to 1 - N). As in :meth:`phys`, the imaginary
        parts of f_0 and f_N are ignored, so the result equals
        spec(jac * phys(f)) without either transform.
        """
        g = f.copy()
        g[0] = f[0].real + f[1].real
        g[-1] = f[-1].real + f[-2].real
        g[1:-1] += 0.5 * (f[:-2] + f[2:])
        # take f_0's and f_N's imaginary parts back out of their neighbours
        g[1] -= 0.5j * f[0].imag
        g[-2] -= 0.5j * f[-1].imag
        return g

    def line_velocity(self, jac_uq: np.ndarray) -> np.ndarray:
        """Grid values of the line velocity from those of (1 + cos q) u_q.

        The quotient is formed in physical space and u is obtained by
        spectral integration with the constant fixed so u(+-pi) = 0 (u
        vanishes at x = +-infinity, matching the exact solutions).
        """
        uq_hat = self.spec(self.over_jacobian(jac_uq))
        u = self.phys(np.divide(uq_hat, self.ik, out=np.zeros_like(uq_hat),
                                where=self.k != 0))
        return u - u[0]  # grid node 0 is q = -pi

    def fields(self, c: np.ndarray, names: tuple = FIELDS,
               out: np.ndarray | None = None) -> np.ndarray:
        """Grid values of the fields named (from FIELDS: w, u_x = H w, u,
        w_x) for the coefficients c, in order; only those are computed,
        into ``out`` when given.

        One stacked inverse transform on both domains. On the line
        (x = tan(q/2)) its rows are then finished on the grid:
        u_x = (1 + cos q) u_q = H^q w + C[w] with
        C[w] = -(1/2pi) PV int w(q') tan(q'/2) dq' = -H^q w(-pi), read at
        grid node 0 (so the singularity of tan at q' = +-pi never appears),
        u by :meth:`line_velocity`, and w_x = (1 + cos q) w_q.
        """
        rows = self._rows.get(names)
        if rows is None:  # once per selection: it is a per-stage cost
            rows = self.stack[[FIELDS.index(name) for name in names]]
            self._rows[names] = rows
        out = np.fft.irfft(rows * c, self.grid.size, norm="forward", out=out)
        if self.domain is Domain.LINE:
            for v, name in zip(out, names):
                if name in ("ux", "u"):
                    v -= v[0]
                if name == "u":
                    v[:] = self.line_velocity(v)
                elif name == "wx":
                    v *= self.jac
        return out

    @functools.cached_property
    def line_basis(self) -> "LineBasis":
        """The eigenbasis of the line's dissipation factor, built on first
        use; only on the line with N <= LINE_LAWSON_N_MAX."""
        n = self.k.size - 1
        if self.domain is not Domain.LINE or n > LINE_LAWSON_N_MAX:
            raise ValueError(f"no line basis for N = {n} on the "
                             f"{self.domain.value} (N <= {LINE_LAWSON_N_MAX})")
        return LineBasis(n)


def _eigh_tridiagonal(d: np.ndarray,
                      e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the
    symmetric tridiagonal matrix with diagonal d and nonzero off-diagonal e.

    numpy alone, without LAPACK: numpy.linalg.eigh's first call maps about
    1.2 MB of LAPACK code into the process. The eigenvalues come from
    bisection on Sturm counts, all at once, to 2 eps relative, or 2 eps
    times 1e-8 of the Gershgorin bound where that is larger, so that an
    eigenvalue at 0 converges too (a zero pivot becomes -inf and counts as
    negative). Each eigenvector comes from the twisted factorisation of
    d - lam: the twist index minimises |D+_k + D-_k - (d_k - lam)| over
    the forward and backward pivots, and the vector is 1 there and follows
    the pivots' ratios outwards (Parlett & Dhillon, Linear Algebra Appl.
    267 (1997) 247). One Newton-Schulz
    step, Z (3 - Z^T Z) / 2, restores orthogonality to round-off.
    Residuals and orthogonality match eigh's, 1e-13 and 2e-15 at n = 256,
    where this takes 45 ms.
    """
    n = d.size
    e2 = e * e
    radius = np.zeros(n)  # Gershgorin
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = np.full(n, np.min(d - radius))
    hi = np.full(n, np.max(d + radius))
    floor = 1e-8 * max(abs(lo[0]), abs(hi[0]))
    index = np.arange(n)
    pivots = np.empty((n, n))  # row k: the k-th pivot at every shift
    tol = 2.0 * np.finfo(float).eps
    with np.errstate(divide="ignore"):
        while np.any(hi - lo > tol * np.maximum(
                np.maximum(np.abs(lo), np.abs(hi)), floor)):
            mid = 0.5 * (lo + hi)
            np.subtract(d[:, None], mid, out=pivots)
            for k in range(1, n):
                pivots[k] -= e2[k - 1] / pivots[k - 1]
            below = np.count_nonzero(pivots < 0.0, axis=0) > index
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
    lam = 0.5 * (lo + hi)
    # the twisted factorisations reuse the buffers: the bisection's
    # pivots for D+, gamma's for the eigenvectors (a smaller peak RSS)
    fwd = np.subtract(d[:, None], lam, out=pivots)
    bwd = fwd.copy()
    for k in range(1, n):
        fwd[k] -= e2[k - 1] / fwd[k - 1]
        bwd[n - 1 - k] -= e2[n - 1 - k] / bwd[n - k]
    gamma = fwd + bwd
    gamma -= d[:, None]
    gamma += lam
    twist = np.argmin(np.abs(gamma, out=gamma), axis=0)
    z = gamma
    z.fill(0.0)
    z[twist, index] = 1.0
    for k in range(n - 2, -1, -1):
        up = k < twist
        z[k, up] = -(e[k] / fwd[k, up]) * z[k + 1, up]
    for k in range(n - 1):
        down = k >= twist
        z[k + 1, down] = -(e[k] / bwd[k + 1, down]) * z[k, down]
    z /= np.sqrt(np.einsum("ij,ij->j", z, z))
    gram = z.T @ z  # then (3 - Z^T Z) / 2, in place
    gram *= -0.5
    gram.flat[::n + 1] += 1.5
    return lam, z @ gram


class LineBasis:
    """Eigenbasis of T = (1 + cos q) d_q H^q, :meth:`Operators.times_jacobian`
    after the symbol S = |k|, on the line's coefficients k = 0..N.

    T is real-linear but not complex-linear (times_jacobian ignores Im c_0
    and Im c_N), so it splits into a cosine block, Re c_k for k = 0..N, and
    a sine block, Im c_k for k = 1..N-1; Im c_0 and Im c_N lie in its
    kernel. On k >= 1 each block is J S, J the tridiagonal [1/2, 1, 1/2],
    similar to the symmetric tridiagonal S^1/2 J S^1/2: diagonal k and
    off-diagonal sqrt(k (k+1)) / 2, except that J's last row in the cosine
    block is [1, 1], which scaling row N by 1/sqrt 2 turns into the pair
    sqrt((N-1) N / 2). :func:`_eigh_tridiagonal` gives each its orthogonal
    Q, so V = D Q and V^-1 = Q^T D^-1 (D diagonal), with no matrix
    inverse. The cosine block's k = 0 row (T_01 = 1; column 0 is zero
    since S_0 = 0) adds the entry x_0 = x_1 / lam to each eigenvector and
    the kernel vector e_0.

    The frame is a float array of 2 (N+1) entries: the cosine block's
    coordinates, e_0's first, then Im c_0, the sine block's and Im c_N.
    ``lam`` holds T's eigenvalues in that order, real and in [0, 2N), so
    nu T^sigma is diagonal there with entries nu lam^sigma. Eigenvector
    conditioning: 76 and 172 for the cosine block at N = 64 and 256,
    sqrt(N-1) for the sine block.
    """

    def __init__(self, grid_size: int):
        n, m = grid_size, grid_size + 1
        k = np.arange(1.0, m)
        off = 0.5 * np.sqrt(k[:-1] * k[1:])
        to_frame, from_frame = np.zeros((2, m, m)), np.zeros((2, m, m))
        lam = np.zeros((2, m))
        # cosine block; D^-1 = S^1/2 with its row N scaled by 1/sqrt 2
        d_inv = np.sqrt(k)
        d_inv[-1] *= np.sqrt(0.5)
        off_cos = off.copy()
        off_cos[-1] = np.sqrt(0.5 * (n - 1) * n)
        lam[0, 1:], q = _eigh_tridiagonal(k, off_cos)
        v = q / d_inv[:, None]
        v_inv = q.T * d_inv
        x0 = v[0] / lam[0, 1:]
        from_frame[0, 0, 0] = to_frame[0, 0, 0] = 1.0
        from_frame[0, 0, 1:], from_frame[0, 1:, 1:] = x0, v
        to_frame[0, 0, 1:], to_frame[0, 1:, 1:] = -x0 @ v_inv, v_inv
        # sine block, k = 1..N-1, between the identities on Im c_0, Im c_N
        lam[1, 1:n], q = _eigh_tridiagonal(k[:-1], off[:-1])
        from_frame[1] = to_frame[1] = np.eye(m)
        from_frame[1, 1:n, 1:n] = q / np.sqrt(k[:-1])[:, None]
        to_frame[1, 1:n, 1:n] = q.T * np.sqrt(k[:-1])
        self.lam = lam.reshape(-1)
        self._to, self._from = to_frame, from_frame
        for a in (self.lam, self._to, self._from):
            a.setflags(write=False)

    def to_frame(self, c: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Frame coordinates (2 (N+1) floats) of the coefficients c, into
        ``out`` when given."""
        m = c.size
        if out is None:
            out = np.empty(2 * m)
        parts = c.view(float)
        np.dot(self._to[0], parts[0::2], out=out[:m])
        np.dot(self._to[1], parts[1::2], out=out[m:])
        return out

    def from_frame(self, z: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of the frame coordinates z, into ``out`` when given;
        the inverse of :meth:`to_frame`."""
        m = z.size // 2
        if out is None:
            out = np.empty(m, complex)
        parts = out.view(float)
        parts[0::2] = self._from[0] @ z[:m]
        parts[1::2] = self._from[1] @ z[m:]
        return out


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
        check_grid_size(self.coeffs.size - 1)

    @property
    def grid_size(self) -> int:
        """N; the field carries the modes k = -N..N-1 on 2N points."""
        return self.coeffs.size - 1

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
    kinetic_energy: float


def norms(f: SpectralField, w: np.ndarray | None = None,
          u: np.ndarray | None = None) -> NormReport:
    """L2, Linf, Wiener (B0) norm and kinetic energy of the field; its grid
    values ``w`` and line velocity ``u`` are transformed unless given."""
    ops = f.ops
    c = f.coeffs
    absc = np.abs(c)
    b0 = float(np.sum(ops.mult * absc))
    vals = ops.phys(c) if w is None else w
    linf = float(np.max(np.abs(vals)))
    if f.domain is Domain.CIRCLE:
        l2 = float(np.sqrt(2.0 * np.pi * np.sum(ops.mult * absc**2)))
        ek = float(np.pi * np.sum(ops.mult * np.abs(ops.velocity * c) ** 2))
    else:
        # physical (x-space) quadratures: dx = dq / (1 + cos q)
        dq = np.pi / f.grid_size
        l2 = float(np.sqrt(np.sum(ops.over_jacobian(vals**2)) * dq))
        if u is None:
            (u,) = ops.fields(c, ("u",))
        ek = 0.5 * float(np.sum(ops.over_jacobian(u**2)) * dq)
    return NormReport(l2=l2, linf=linf, b0=b0, kinetic_energy=ek)


@contextlib.contextmanager
def open_stream(fh, mode: str = "r"):
    """The stream fh itself, or the file at path fh opened in mode (and
    closed on exit)."""
    if isinstance(fh, (str, bytes, os.PathLike)):
        with open(fh, mode) as stream:
            yield stream
    else:
        yield fh


# ---------------------------------------------------------------------------
# snapshot file format: '# gclm-field v1 domain=<circle|line> t=<...>',
# then time, N, and 2N coefficients for k = -N..N-1 as 're im' lines. The
# k = 0..N half is expanded to this full spectrum on write and folded back
# on read.

def write_snapshot(f: SpectralField, t: float, fh) -> None:
    """Write the v1 snapshot of f at time t, in one write."""
    n = f.grid_size
    t = repr(float(t))  # a numpy scalar's repr is 'np.float64(...)'
    c = f.coeffs
    # k = -N is the real Nyquist coefficient itself, k = -N+1..-1 the
    # conjugates of k = N-1..1
    ordered = np.concatenate([c[n:], np.conj(c[n - 1:0:-1]), c[:n]])
    rows = "".join(f"{re!r} {im!r}\n" for re, im in
                   zip(ordered.real.tolist(), ordered.imag.tolist()))
    with open_stream(fh, "w") as stream:
        stream.write(f"# gclm-field v1 domain={f.domain.value} t={t}\n"
                     f"{t}\n{n}\n{rows}")


def read_snapshot(fh) -> tuple[SpectralField, float]:
    """Read a v1 snapshot; raises ValueError unless the header names a
    known domain, the file holds exactly the 4N numbers of 2N coefficients
    and those are the coefficients of a real field (to 1e-12 of the
    largest)."""
    with open_stream(fh) as stream:
        header = stream.readline().strip()
        if not header.startswith("# gclm-field v1"):
            raise ValueError(f"not a gclm-field snapshot: {header!r}")
        tokens = dict(tok.split("=", 1) for tok in header.split()
                      if "=" in tok)
        domain = Domain(tokens.get("domain"))  # ValueError unless known
        t = float(stream.readline())
        n = int(stream.readline())
        check_grid_size(n)
        numbers = stream.read().split()
    if len(numbers) != 4 * n:
        raise ValueError(f"snapshot holds {len(numbers)} numbers, not the "
                         f"{4 * n} of 2N = {2 * n} coefficients")
    full = np.array(numbers, dtype=float).view(complex)  # k = -N..N-1
    tol = 1e-12 * np.max(np.abs(full))
    if np.max(np.abs(full[1:n] - np.conj(full[:n:-1]))) > tol:
        raise ValueError("snapshot coefficients k < 0 are not the conjugates "
                         "of k > 0: not a real field")
    if max(abs(full[0].imag), abs(full[n].imag)) > tol:
        raise ValueError("snapshot coefficients k = 0 and k = -N must be real")
    return SpectralField(np.append(full[n:], full[0]), domain), t
