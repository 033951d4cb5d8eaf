"""Exact pole-dynamics solutions of the dissipative gCLM equation.

Seven families, used as oracles, initial-data generators and classifiers:

* ``SchochetState``        a = 0,  sigma = 2, real line (two double poles)
* ``DoublePoleState``      a = 1/2, sigma = 1, real line (c.c. double pole)
* ``OnePairS1State``       a = 0,  sigma = 1, real line (c.c. simple poles)
* ``TwoPairS1State``       a = 0,  sigma = 1, real line (two c.c. pairs)
* ``TwoPairDoublePoleLimitState``  degenerate limit of the two-pair family
* ``OnePairS0State``       a = 0,  sigma = 0, real line
* ``PeriodicPoleState``    a = 0,  sigma = 0, circle (pole in tan(x/2))

Each state stores its initial data; ``evaluate(x)`` gives the real
vorticity, ``classify()`` the global-existence / steady / finite-time-collapse
verdict with similarity exponents, and ``similarity_profile(xi)`` the
limiting collapse profile.  What they share lives on the base ``PoleState``:
the equation each family solves (``params_a``, ``params_sigma`` and the
state's ``nu``, read by ``gclm_params()``), its domain, ``field(N)`` (the
state sampled on the collocation grid) and ``advance(t)`` (the state at
absolute time t, refused at or past the collapse time).

Every trajectory is a closed form, at most inverted by one bisection (the
double pole); collapse times come from closed forms or from a scan for the
first zero of a pole distance, finished by bisection or golden-section
search. numpy is all they need.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass

import numpy as np

from gclm.spectral import Domain, GclmParams, SpectralField

__all__ = [
    "Kind",
    "Classification",
    "PastCollapseError",
    "HigherOrderUnknownError",
    "NotCollapsingError",
    "PoleState",
    "SchochetState",
    "DoublePoleState",
    "OnePairS1State",
    "TwoPairS1State",
    "TwoPairDoublePoleLimitState",
    "OnePairS0State",
    "PeriodicPoleState",
    "family_from_name",
]


class Kind(enum.Enum):
    GLOBAL = "global"
    STEADY = "steady"
    COLLAPSE = "collapse"


class PastCollapseError(ValueError):
    """Requested time at or beyond the collapse time."""


class HigherOrderUnknownError(ValueError):
    """Both pole pairs reach the axis simultaneously; classification unknown."""


class NotCollapsingError(ValueError):
    """Similarity profile requested for a non-collapsing state."""


@dataclass
class Classification:
    kind: Kind
    t_c: float | None = None
    x_c: float | None = None
    alpha: float | None = None
    beta: float | None = None

    @classmethod
    def collapse(cls, t_c, x_c, alpha=1.0, beta=1.0) -> "Classification":
        """A collapse at time t_c and point x_c; by default with the
        exponents alpha = beta = 1 of simple poles reaching the axis."""
        return cls(Kind.COLLAPSE, float(t_c), float(x_c), alpha, beta)


def _continuous_sqrt(path: np.ndarray) -> np.ndarray:
    """Square root along a sampled path, principal branch at the start,
    sign-flipped whenever consecutive values would jump branches (a flip
    negates both values of each later pair, so jumps are judged unflipped)."""
    s = np.sqrt(path.astype(complex))
    jump = np.abs(s[1:] - s[:-1]) > np.abs(s[1:] + s[:-1])
    s[1:] = np.where(np.logical_xor.accumulate(jump), -s[1:], s[1:])
    return s


def _bisect(f, lo, hi, xtol: float = 0.0, rtol: float = 0.0) -> float:
    """A point where f changes sign, from f(lo) > 0 >= f(hi): the interval
    is halved until it is at most xtol + rtol |mid| wide, or until no float
    lies strictly inside it (lo may exceed hi; neither end is evaluated)."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi) or abs(hi - lo) <= xtol + rtol * abs(mid):
            return mid
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section search: a minimizer of f on [lo, hi], unimodal there,
    to an interval of width at most xtol."""
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _first_zero(f, f_vec, t_hint: float, t_cap: float = 1e6):
    """First positive root of a scalar function, allowing tangential zeros.

    Returns (t, tangent) or None; ``tangent`` is True when f touches zero
    without changing sign.  ``f_vec`` evaluates f on a whole t array at
    once (the scan); f itself serves the root polish: bisection of the
    first sign change to within 1e-14 + 1e-15 t, or a golden-section
    search of an interior minimum.
    """
    scale = max(abs(f(0.0)), 1e-12)
    t_hi = t_hint
    while t_hi <= t_cap:
        ts = np.linspace(0.0, t_hi, 8193)[1:]
        vals = np.asarray(f_vec(ts))
        neg = np.nonzero(vals <= 0)[0]
        if neg.size:
            i = neg[0]
            lo = ts[i - 1] if i > 0 else 0.0
            if vals[i] == 0.0:
                return float(ts[i]), False
            return float(_bisect(f, lo, ts[i], 1e-14, 1e-15)), False
        # look for a tangential touch at the interior minimum
        i = int(np.argmin(vals))
        if 0 < i < vals.size - 1:
            t = _golden_min(f, ts[i - 1], ts[i + 1], 1e-14 * ts[i])
            if f(t) <= 1e-9 * scale:
                return float(t), True
        t_hi *= 2.0
    return None


def _pole_pairs(x, *pairs):
    """Sum over (omega, v) of omega/(x - i v) + conj(omega)/(x + i conj(v)):
    simple poles at i v and their mirror images, real on the real axis."""
    x = np.asarray(x, dtype=complex)
    out = 0.0
    for om, v in pairs:
        out = out + om / (x - 1j * v) + np.conj(om) / (x + 1j * np.conj(v))
    return out


class PoleState:
    """Base of the families: one state of one closed-form solution.

    A family is a dataclass with fields ``nu`` and ``t`` that sets
    ``params_a`` and ``params_sigma`` (the equation it solves) and defines
    ``evaluate(x)`` and ``classify()``.
    """

    domain = Domain.LINE
    params_a: float
    params_sigma: float

    def gclm_params(self) -> GclmParams:
        return GclmParams(a=self.params_a, sigma=self.params_sigma,
                          nu=self.nu)

    def field(self, grid_size: int) -> SpectralField:
        """Sample the state on the collocation grid (q-grid on the line)."""
        line = self.domain is Domain.LINE
        return SpectralField.from_function(
            lambda q: self.evaluate(np.tan(q / 2.0) if line else q),
            grid_size, self.domain)

    def advance(self, t: float):
        """The state at absolute time t, which must precede any collapse."""
        cl = self._classification
        if cl.kind is Kind.COLLAPSE and t >= cl.t_c:
            raise PastCollapseError(f"t={t} >= t_c={cl.t_c}")
        return self._at(t)

    def _at(self, t: float):
        return dataclasses.replace(self, t=t)

    @functools.cached_property
    def _classification(self) -> Classification:
        """classify(), computed once per state (no family's reads t)."""
        return self.classify()

    def _collapse(self, why: str) -> Classification:
        """The classification, which must be a collapse (else ``why``)."""
        cl = self._classification
        if cl.kind is not Kind.COLLAPSE:
            raise NotCollapsingError(why)
        return cl


# ---------------------------------------------------------------------------
# a = 0, sigma = 2 on the real line (Schochet)

#: amplitude constants K+- = 24(3 +- sqrt(6)); they correct the published
#: values 12(6 +- sqrt(6)), which are in error.
def schochet_k(sign: int) -> float:
    return 24.0 * (3.0 + sign * np.sqrt(6.0))


@dataclass
class SchochetState(PoleState):
    """Two double poles at x1(t), x2(t) in the lower half-plane."""

    x1_0: complex = -1j
    x2_0: complex = -2j
    nu: float = 1.0
    sign: int = 1
    t: float = 0.0

    params_a = 0.0
    params_sigma = 2.0

    @property
    def k_const(self) -> float:
        return schochet_k(self.sign)

    def _sqrt(self, t: float) -> complex:
        """x1 - x2 = sqrt(R(t)), R(t) = (x1_0 - x2_0)^2 - (5/3) K nu t.

        R moves along a horizontal line in the complex plane, so it meets
        the branch cut only if it lies on the real axis, and there the
        principal root is the one continued from t = 0."""
        dx2 = (self.x1_0 - self.x2_0) ** 2
        return complex(np.sqrt(complex(
            dx2 - (5.0 / 3.0) * self.k_const * self.nu * t)))

    def positions(self, t: float | None = None) -> tuple[complex, complex]:
        t = self.t if t is None else t
        s = self._sqrt(t)
        half_sum = 0.5 * (self.x1_0 + self.x2_0)
        return half_sum + 0.5 * s, half_sum - 0.5 * s

    def amplitude(self, t: float | None = None) -> complex:
        t = self.t if t is None else t
        return -self.k_const * self.nu * 1j / self._sqrt(t)

    def omega_plus(self, x):
        x = np.asarray(x, dtype=complex)
        x1, x2 = self.positions()
        a = self.amplitude()
        b = -12.0 * self.nu * 1j
        return 0.5 * (a / (x - x1) + b / (x - x1) ** 2
                      - a / (x - x2) + b / (x - x2) ** 2)

    def evaluate(self, x):
        return 2.0 * np.real(self.omega_plus(x))

    def collapse_time(self) -> float:
        tc = -12.0 / 5.0 * self.x1_0 * self.x2_0 / (self.k_const * self.nu)
        return float(np.real(tc))

    def classify(self) -> Classification:
        tc = self.collapse_time()
        x1, x2 = self.positions(tc)
        x_c = x1.real if abs(x1.imag) <= abs(x2.imag) else x2.real
        return Classification.collapse(tc, x_c, beta=2.0)

    def v_tilde(self) -> complex:
        return -5j * self.k_const * self.nu / (12.0 * (self.x1_0 + self.x2_0))

    def similarity_profile(self, xi):
        """Limit of (t_c - t)^2 w at xi = (x - x_c)/(t_c - t)."""
        xi = np.asarray(xi, dtype=float)
        v = self.v_tilde()
        return np.real(-24.0 * v * xi / (xi**2 + v**2) ** 2)


# ---------------------------------------------------------------------------
# a = 1/2, sigma = 1 on the real line (c.c. pair of double poles)

_G_INF = np.pi / (4.0 * np.sqrt(2.0))


def _g_implicit(om: float, s: float = None) -> float:
    """Antiderivative G with G' = 1/(om^2 sqrt(om - 2)); affine in t along
    collapsing trajectories of the amplitude ratio.  s = sqrt(om - 2) is
    passed where it is known to more digits than om - 2."""
    if s is None:
        s = np.sqrt(om - 2.0)
    return s / (2.0 * om) + np.arctan(s / np.sqrt(2.0)) / (2.0 * np.sqrt(2.0))


def _h_implicit(om: float, s: float = None) -> float:
    """Antiderivative H with H' = 1/(om^2 sqrt(2 - om)) on om < 2, om != 0:
    the analogue of G below the equilibrium ratio, s = sqrt(2 - om) as in
    G.  log|(sqrt 2 + s)/(sqrt 2 - s)| is written log|1 + x| with
    x = 2 s (sqrt 2 + s)/om, which keeps its relative precision both near
    the equilibrium (x small) and near om = 0 (|x| large)."""
    if s is None:
        s = np.sqrt(2.0 - om)
    x = 2.0 * s * (np.sqrt(2.0) + s) / om
    log_ratio = np.log1p(x) if om > 0 else np.log(-1.0 - x)
    return -s / (2.0 * om) - log_ratio / (4.0 * np.sqrt(2.0))


@dataclass
class DoublePoleState(PoleState):
    v_c0: float = 1.0
    omega_m2_0: float = 2.0
    x0: float = 0.0
    nu: float = 1.0
    t: float = 0.0
    # values at time t (filled by advance)
    v_c: float = None
    omega_m2: float = None

    params_a = 0.5
    params_sigma = 1.0

    def __post_init__(self):
        if self.v_c0 <= 0:
            raise ValueError(f"v_c0 must be positive, got {self.v_c0!r}")
        if self.v_c is None:
            self.v_c = self.v_c0
        if self.omega_m2 is None:
            self.omega_m2 = self.omega_m2_0

    @property
    def omega_ratio0(self) -> float:
        return self.omega_m2_0 / self.v_c0

    def _at(self, t: float) -> "DoublePoleState":
        """The pole ODE dv_c/dt = nu - r/4, d omega_m2/dt = r^2/4 with
        r = omega_m2/v_c, solved in closed form: v_c r / sqrt|r/2 - nu| is
        conserved, so m = r/nu obeys dm/dt = k m^2 sqrt|m - 2| sgn(m - 2)
        with k = nu sqrt|m0 - 2| / (2 v_c0 m0), and G(m) (m > 2) or
        H(m) (m < 2) moves by k t; one bisection inverts it."""
        r0, nu = self.omega_ratio0, self.nu
        if nu == 0.0:
            # inviscid: v_c omega_m2 is conserved and v_c^3 falls linearly
            c = self.v_c0 * self.omega_m2_0
            v = float(np.cbrt(self.v_c0**3 - 0.75 * c * t))
            return dataclasses.replace(self, t=t, v_c=v, omega_m2=c / v)
        if r0 in (0.0, 2.0 * nu):
            # fixed points of the amplitude ratio: v_c grows linearly
            v = self.v_c0 + (nu - 0.25 * r0) * t
            return dataclasses.replace(self, t=t, v_c=v, omega_m2=r0 * v)
        m0 = r0 / nu
        s0 = np.sqrt(abs(m0 - 2.0))
        kt = nu * s0 / (2.0 * self.v_c0 * m0) * t
        # bisect a variable that keeps both m and s = sqrt|m - 2| to full
        # relative precision, near the equilibrium m = 2 and near 0 or
        # infinity
        if m0 > 2.0:
            # m rises to infinity at t_c: bisect 1/s in (0, 1/s0]
            g = _g_implicit(m0, s0) + kt
            s = 1.0 / _bisect(lambda u: g - _g_implicit(2.0 + u**-2, 1.0 / u),
                              1.0 / s0, 0.0)
            m = 2.0 + s * s
        elif m0 > 1.0:
            # m decays towards 0 from near the equilibrium: bisect s
            h = _h_implicit(m0, s0) - kt
            s = _bisect(lambda x: _h_implicit(2.0 - x * x, x) - h,
                        s0, np.sqrt(2.0))
            m = 2.0 - s * s
        else:
            # m decays towards 0 from the side of m0
            h = _h_implicit(m0) - kt
            m = _bisect(lambda x: np.sign(m0) * (_h_implicit(x) - h), m0, 0.0)
            s = np.sqrt(2.0 - m)
        v = self.v_c0 * m0 / m * s / s0
        return dataclasses.replace(self, t=t, v_c=float(v),
                                   omega_m2=float(nu * m * v))

    def evaluate(self, x):
        x = np.asarray(x, dtype=complex) - self.x0
        w = 1j * self.omega_m2 * (1.0 / (x - 1j * self.v_c) ** 2
                                  - 1.0 / (x + 1j * self.v_c) ** 2)
        return np.real(w)

    def _scaled_c1(self) -> float:
        om = self.omega_ratio0 / self.nu
        return np.sqrt(om - 2.0) / (2.0 * self.v_c0 * om)

    def collapse_time(self) -> float:
        if self.nu == 0.0:
            # inviscid: v_c^3 = v_c0^3 - (3/4) v_c0 omega_m2_0 t reaches 0
            return 4.0 * self.v_c0**2 / (3.0 * self.omega_m2_0)
        om = self.omega_ratio0 / self.nu
        return float((_G_INF - _g_implicit(om)) / self._scaled_c1() / self.nu)

    def v_c_tilde(self) -> float:
        if self.nu == 0.0:  # the limit nu -> 0 of the viscous constant
            return float(np.cbrt(0.75 * self.v_c0 * self.omega_m2_0))
        c1 = self._scaled_c1()
        return 0.75 * (1.5 * c1) ** (-2.0 / 3.0) * self.nu ** (1.0 / 3.0)

    def classify(self) -> Classification:
        ratio = self.omega_ratio0
        if ratio == 2.0 * self.nu:
            return Classification(Kind.STEADY)
        if ratio < 2.0 * self.nu:
            return Classification(Kind.GLOBAL)
        return Classification.collapse(self.collapse_time(), self.x0,
                                       alpha=1.0 / 3.0)

    def implicit_invariant(self) -> float:
        """G(omega_m2 / (nu v_c)) at the state's time, affine in nu*t; at
        nu = 0 the inviscid invariant v_c omega_m2, constant in t."""
        return (self.v_c * self.omega_m2 if self.nu == 0.0
                else _g_implicit(self.omega_m2 / (self.nu * self.v_c)))

    def similarity_profile(self, xi):
        self._collapse("amplitude ratio <= 2 nu")
        xi = np.asarray(xi, dtype=float)
        v = self.v_c_tilde()
        return -16.0 * v**3 * xi / (3.0 * (xi**2 + v**2) ** 2)

    def norms_closed_form(self) -> dict:
        ratio = self.omega_m2 / self.v_c
        return {
            "linf": 3.0 * np.sqrt(3.0) / 4.0 * abs(ratio) / self.v_c,
            "l2": np.sqrt(np.pi) * abs(ratio) / np.sqrt(self.v_c),
        }


# ---------------------------------------------------------------------------
# one c.c. pair of simple poles: residue omega_{-1}(t) at i v_c(t)

@dataclass
class _OnePair(PoleState):
    omega_m1_0: complex = -2.0
    v_c0: complex = 1.0
    nu: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        self.omega_m1_0 = complex(self.omega_m1_0)
        self.v_c0 = complex(self.v_c0)
        if self.v_c0.real <= 0:
            raise ValueError(f"Re v_c0 must be positive, got {self.v_c0!r}")

    def evaluate(self, x):
        return np.real(_pole_pairs(x, (self.omega_m1(), self.v_c())))

    def norms_closed_form(self) -> dict:
        om, v = self.omega_m1(), self.v_c()
        return {
            "linf": (abs(om) + abs(om.imag)) / v.real,
            "l2": np.sqrt(2.0 * np.pi) * abs(om) / np.sqrt(v.real),
        }


# a = 0, sigma = 1 on the real line

class OnePairS1State(_OnePair):
    params_a = 0.0
    params_sigma = 1.0

    def omega_m1(self, t: float | None = None) -> complex:
        return self.omega_m1_0

    def v_c(self, t: float | None = None) -> complex:
        t = self.t if t is None else t
        return (self.omega_m1_0 + self.nu) * t + self.v_c0

    def classify(self) -> Classification:
        om, nu = self.omega_m1_0, self.nu
        if om == -nu:
            return Classification(Kind.STEADY)
        if om.real >= -nu:
            return Classification(Kind.GLOBAL)
        t_c = -self.v_c0.real / (om.real + nu)
        x_c = om.imag * self.v_c0.real / (om.real + nu) - self.v_c0.imag
        return Classification.collapse(t_c, x_c)

    def similarity_profile(self, xi):
        cl = self._collapse("Re omega_{-1}(0) >= -nu")
        xi = np.asarray(xi, dtype=complex)
        xp = (1j * self.v_c0 - cl.x_c) / cl.t_c
        xm = (-1j * self.v_c0 - cl.x_c) / cl.t_c
        f = 1j * ((xp + 1j * self.nu) / (xi - xp)
                  - (xm - 1j * self.nu) / (xi - xm))
        return np.real(f)


# ---------------------------------------------------------------------------
# a = 0, sigma = 1 on the real line, two c.c. pairs of simple poles

@dataclass
class TwoPairS1State(PoleState):
    omega_m1_1_0: complex = -2.0
    omega_m1_2_0: complex = 2.0
    v_c1_0: complex = 0.1
    v_c2_0: complex = 0.9
    nu: float = 1.0
    t: float = 0.0

    params_a = 0.0
    params_sigma = 1.0

    def __post_init__(self):
        for name in ("omega_m1_1_0", "omega_m1_2_0", "v_c1_0", "v_c2_0"):
            setattr(self, name, complex(getattr(self, name)))
        if self.v_c1_0.real <= 0 or self.v_c2_0.real <= 0:
            raise ValueError("Re v_c1_0 and Re v_c2_0 must be positive")

    @property
    def c0(self) -> complex:
        """Conserved total residue."""
        return self.omega_m1_1_0 + self.omega_m1_2_0

    @property
    def c1(self) -> complex:
        return self.omega_m1_1_0 - self.omega_m1_2_0

    def _path(self, ts):
        """(omega_m1_1, omega_m1_2, v_c1, v_c2) along the times ts, with the
        square root continued from ts[0] (vectorized)."""
        ts = np.asarray(ts, dtype=float)
        c0, c1 = self.c0, self.c1
        dv = self.v_c1_0 - self.v_c2_0
        vsum = self.v_c1_0 + self.v_c2_0
        s = _continuous_sqrt(1.0 + 2.0 * c1 * ts / dv + c0**2 * ts**2 / dv**2)
        om1 = 0.5 * c0 + 0.5 * (c1 + c0**2 * ts / dv) / s
        v1 = 0.5 * c0 * ts + self.nu * ts + 0.5 * dv * s + 0.5 * vsum
        return om1, c0 - om1, v1, -v1 + (2.0 * self.nu + c0) * ts + vsum

    def values_at(self, t: float):
        """(omega_m1_1, omega_m1_2, v_c1, v_c2) at time t."""
        ts = np.linspace(0.0, t, 256) if t > 0 else np.array([0.0])
        return tuple(p[-1] for p in self._path(ts))

    def evaluate(self, x):
        om1, om2, v1, v2 = self.values_at(self.t)
        return np.real(_pole_pairs(x, (om1, v1), (om2, v2)))

    def pole_distances(self, t: float) -> tuple[float, float]:
        _, _, v1, v2 = self.values_at(t)
        return v1.real, v2.real

    def _vdot(self, j: int, t: float) -> complex:
        om1, om2, _, _ = self.values_at(t)
        return self.nu + (om1 if j == 1 else om2)

    def classify(self) -> Classification:
        scale = max(self.v_c1_0.real, self.v_c2_0.real)
        hits = []
        for j in (1, 2):
            res = _first_zero(lambda t, j=j: self.pole_distances(t)[j - 1],
                              lambda ts, j=j: np.real(self._path(ts)[j + 1]),
                              t_hint=max(1.0, scale))
            if res is not None:
                hits.append((res[0], j, res[1]))
        if not hits:
            return Classification(Kind.GLOBAL)
        hits.sort()
        t_c, j, tangent = hits[0]
        if len(hits) == 2 and abs(hits[0][0] - hits[1][0]) < 1e-9 * max(t_c, 1.0):
            _, _, v1, v2 = self.values_at(t_c)
            if abs(v1 - v2) < 1e-9 * max(abs(v1), abs(v2), 1.0):
                raise HigherOrderUnknownError(
                    "both pole pairs reach the axis together")
        _, _, v1, v2 = self.values_at(min(t_c, t_c * (1 - 1e-12)))
        v = v1 if j == 1 else v2
        ab = 2.0 if tangent else 1.0
        return Classification.collapse(t_c, -v.imag, alpha=ab, beta=ab)

    def similarity_profile(self, xi):
        cl = self._collapse("no pole pair reaches the axis")
        xi = np.asarray(xi, dtype=complex)
        eps = 1e-9 * cl.t_c
        om1, om2, v1, v2 = self.values_at(cl.t_c - eps)
        j = 1 if abs(v1.real) < abs(v2.real) else 2
        om = om1 if j == 1 else om2
        if cl.alpha == 1.0:
            vd = self._vdot(j, cl.t_c - eps)
            f = om / (xi + 1j * vd) + np.conj(om) / (xi - 1j * np.conj(vd))
        else:
            # tangential impact: second-order pole approach
            h = 1e-6 * cl.t_c
            vdd = (self._vdot(j, cl.t_c - eps)
                   - self._vdot(j, cl.t_c - eps - h)) / h
            f = (om / (xi - 0.5j * vdd)
                 + np.conj(om) / (xi + 0.5j * np.conj(vdd)))
        return np.real(f)


@dataclass
class TwoPairDoublePoleLimitState(PoleState):
    """Two-pair family seeded by a c.c. pair of double poles.

    Initial data w0 = 2iA [ (x - iV_c)^{-2} - (x + iV_c)^{-2} ]; each double
    pole splits into two simple poles at t = 0+.
    """

    amplitude: float = 4.0
    v_c: float = 1.0
    nu: float = 1.0
    t: float = 0.0

    params_a = 0.0
    params_sigma = 1.0

    def values_at(self, t: float):
        if t <= 0:
            raise ValueError("pole split is defined for t > 0")
        a, vc, nu = self.amplitude, self.v_c, self.nu
        om1 = -np.sqrt(a / (2.0 * t))
        v1 = nu * t - np.sqrt(2.0 * a * t) + vc
        v2 = nu * t + np.sqrt(2.0 * a * t) + vc
        return om1, -om1, v1, v2

    def evaluate(self, x):
        if self.t == 0:
            x = np.asarray(x, dtype=complex)
            a, vc = self.amplitude, self.v_c
            w = 2j * a * (1.0 / (x - 1j * vc) ** 2 - 1.0 / (x + 1j * vc) ** 2)
            return np.real(w)
        om1, om2, v1, v2 = self.values_at(self.t)
        return np.real(_pole_pairs(x, (om1, v1), (om2, v2)))

    def classify(self) -> Classification:
        a, vc, nu = self.amplitude, self.v_c, self.nu
        thresh = 2.0 * nu * vc
        if a > thresh:
            d = a - nu * vc
            t_c = (d - np.sqrt(d * d - (nu * vc) ** 2)) / nu**2
            return Classification.collapse(t_c, 0.0)
        if a == thresh:
            return Classification.collapse(a / (2.0 * nu**2), 0.0,
                                           alpha=2.0, beta=2.0)
        return Classification(Kind.GLOBAL)


# ---------------------------------------------------------------------------
# a = 0, sigma = 0 on the real line

class OnePairS0State(_OnePair):
    params_a = 0.0
    params_sigma = 0.0

    def omega_m1(self, t: float | None = None) -> complex:
        t = self.t if t is None else t
        return self.omega_m1_0 * np.exp(-self.nu * t)

    def v_c(self, t: float | None = None) -> complex:
        t = self.t if t is None else t
        if self.nu == 0:
            return self.omega_m1_0 * t + self.v_c0
        return (self.omega_m1_0 / self.nu * (1.0 - np.exp(-self.nu * t))
                + self.v_c0)

    def classify(self) -> Classification:
        om, v0, nu = self.omega_m1_0, self.v_c0, self.nu
        if nu == 0:
            if om.real >= 0:
                return Classification(Kind.GLOBAL)
            t_c = v0.real / (-om.real)
        else:
            crit = -nu * v0.real
            if om.real > crit:
                return Classification(Kind.GLOBAL)
            if om.real == crit:
                return Classification(Kind.STEADY)
            t_c = -np.log(1.0 + nu * v0.real / om.real) / nu
        x_c = om.imag / om.real * v0.real - v0.imag
        return Classification.collapse(t_c, x_c)

    def similarity_profile(self, xi):
        cl = self._collapse("poles never reach the axis")
        xi = np.asarray(xi, dtype=complex)
        om_c = self.omega_m1(cl.t_c)
        xp, xm = -1j * om_c, 1j * np.conj(om_c)
        f = 1j * (xp / (xi - xp) - xm / (xi - xm))
        return np.real(f)


# ---------------------------------------------------------------------------
# a = 0, sigma = 0 on the circle: pole in tan(x/2)-space

@dataclass
class PeriodicPoleState(_OnePair):
    omega_m1_0: complex = -1.0

    domain = Domain.CIRCLE
    params_a = 0.0
    params_sigma = 0.0

    def _w(self) -> complex:
        """e^{nu t0} = 1 - nu (1 + v_c(0)) / omega_{-1}(0)."""
        return 1.0 - self.nu * (1.0 + self.v_c0) / self.omega_m1_0

    def omega_m1(self, t: float | None = None) -> complex:
        t = self.t if t is None else t
        if self.nu == 0:
            den = 1.0 - self.omega_m1_0 / (1.0 + self.v_c0) * t
            return self.omega_m1_0 / den**2
        w, e = self._w(), np.exp(-self.nu * t)
        return self.omega_m1_0 * e * ((w - 1.0) / (w - e)) ** 2

    def v_c(self, t: float | None = None) -> complex:
        t = self.t if t is None else t
        if self.nu == 0:
            r = self.omega_m1_0 / (1.0 + self.v_c0) * t
            return (self.v_c0 + r) / (1.0 - r)
        w, e = self._w(), np.exp(-self.nu * t)
        return -(1.0 + self.v_c0) * (1.0 - e) / (w - e) + self.v_c0

    def omega_minus(self, x):
        x = np.asarray(x, dtype=complex)
        om, v = self.omega_m1(), self.v_c()
        return om * (1.0 / (np.tan(x / 2.0) - 1j * v) - 1.0 / (-1j - 1j * v))

    def evaluate(self, x):
        return 2.0 * np.real(self.omega_minus(np.asarray(x, dtype=complex)))

    def _is_real_data(self) -> bool:
        return self.omega_m1_0.imag == 0 and self.v_c0.imag == 0

    def classify(self) -> Classification:
        om, v0, nu = self.omega_m1_0, self.v_c0, self.nu
        if om == 0:
            return Classification(Kind.GLOBAL)
        if nu == 0:
            x_big = (om.real * (1.0 + v0.imag**2 - v0.real**2)
                     - 2.0 * om.imag * v0.imag * v0.real)
            disc = (4.0 * abs(om) ** 2 * v0.real
                    * (abs(v0) ** 2 + 1.0 + 2.0 * v0.real) + x_big**2)
            t_c = (x_big + np.sqrt(disc)) / (2.0 * abs(om) ** 2)
            # the pole may instead escape to v_c = infinity (x_c = +-pi)
            # when the denominator 1 - omega_{-1}(0) t / (1 + v_c(0)) of the
            # inviscid solution vanishes first
            den = 1.0 - om * t_c / (1.0 + v0)
            if abs(den) < 1e-8:
                return Classification.collapse(t_c, np.pi)
            vc = self.v_c(t_c)
            x_c = 2.0 * np.arctan(-vc.imag)
            return Classification.collapse(t_c, x_c)
        if self._is_real_data():
            omr, vr = om.real, v0.real
            lo, hi = -nu * vr * (1.0 + vr), nu * (1.0 + vr)
            if lo < omr < hi:
                return Classification(Kind.GLOBAL)
            if omr == lo or omr == hi:
                return Classification(Kind.STEADY)
            if omr < lo:
                t_c = np.log(omr / (omr + nu * vr * (1.0 + vr))) / nu
                return Classification.collapse(t_c, 0.0)
            t_c = np.log(omr / (omr - nu * (1.0 + vr))) / nu
            return Classification.collapse(t_c, np.pi)
        # complex data with dissipation: locate the first axis crossing or
        # escape to v_c = infinity numerically
        w = self._w()
        hits = []
        res = _first_zero(lambda t: self.v_c(t).real,
                          lambda ts: np.real(self.v_c(np.asarray(ts))),
                          t_hint=1.0)
        if res is not None:
            hits.append((res[0], "zero"))
        if w.imag == 0 and 0.0 < w.real < 1.0:
            hits.append((-np.log(w.real) / nu, "inf"))
        if not hits:
            return Classification(Kind.GLOBAL)
        hits.sort()
        t_c, how = hits[0]
        if how == "inf":
            return Classification.collapse(t_c, np.pi)
        vc = self.v_c(t_c)
        return Classification.collapse(t_c, 2.0 * np.arctan(-vc.imag))

    def similarity_profile(self, xi):
        cl = self._collapse("no collapse for this data")
        if cl.x_c not in (0.0,):
            raise NotImplementedError(
                "profile implemented for collapse at x_c = 0 only")
        xi = np.asarray(xi, dtype=complex)
        eps = 1e-9 * cl.t_c
        om_c = self.omega_m1(cl.t_c - eps)
        # near x = 0, tan(x/2) ~ x/2, pole velocity d v_c/dt = omega_{-1}
        f = 4.0 * np.real(om_c / (xi + 2j * om_c))
        return f

    def norms_closed_form(self) -> dict:
        om, v = self.omega_m1(), self.v_c()
        vr, vi = v.real, v.imag
        linf = ((abs(om) - om.imag) / vr
                + 2.0 * (om.imag * (1.0 + vr) - vi * om.real)
                / (vi**2 + (1.0 + vr) ** 2))
        l2 = (2.0 * np.sqrt(np.pi) * abs(om)
              / np.sqrt(vr * (vi**2 + (1.0 + vr) ** 2)))
        b0 = (abs(om) / vr
              * (np.sqrt((vi**2 + (1.0 - vr) ** 2)
                         / (vi**2 + (1.0 + vr) ** 2)) + 1.0))
        return {"linf": float(linf), "l2": float(l2), "b0": float(b0)}


_FAMILIES = {
    "schochet": SchochetState,
    "doublepole": DoublePoleState,
    "onepair_s1": OnePairS1State,
    "twopair_s1": TwoPairS1State,
    "twopair_dp": TwoPairDoublePoleLimitState,
    "onepair_s0": OnePairS0State,
    "periodic_s0": PeriodicPoleState,
}


def family_from_name(name: str, **kwargs):
    try:
        cls = _FAMILIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    return cls(**kwargs)
