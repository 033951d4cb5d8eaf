"""Locating complex singularities from grid data.

Two complementary estimators:

* asymptotic Fourier-decay fitting: |w_k| ~ C e^{-delta k} / k^p gives the
  distance delta of the nearest complex singularity to the real axis and the
  branching exponent p,
* AAA rational approximation of the grid values, whose poles track the
  individual complex singularities directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gclm.spectral import Domain, SpectralField

__all__ = [
    "DecayFit",
    "SpectrumTooCleanError",
    "fit_fourier_decay",
    "delta_to_x",
    "RationalApprox",
    "aaa_approximate",
]

#: coefficients below FLOOR_TOL * max |w_k| are treated as round-off noise
FLOOR_TOL = 1e-13

#: least-squares fits need at least this many usable modes
MIN_WINDOW_MODES = 16

#: floor of the AAA tolerance (relative error to max |f|) for a fit to count
#: as converged; a snapshot is fitted to AAA_TAIL_FACTOR times its tail/peak
AAA_TOL = 1e-12
AAA_TAIL_FACTOR = 10.0

#: Froissart doublets with |residue| / (distance to the nearest sample)
#: below this times the geometric mean of |f| are stripped
AAA_CLEAN_UP_TOL = 1e-13

#: AAA columns are scaled to unit norm once the Loewner matrix's condition
#: number exceeds this, 1/(3 eps) as in scipy; Newton steps on each pole
ILL_CONDITIONED = 1.0 / (3.0 * np.finfo(float).eps)
NEWTON_STEPS = 2


class SpectrumTooCleanError(ValueError):
    """Too few Fourier modes above the round-off floor to fit a decay law."""


@dataclass
class DecayFit:
    """Fit of |w_k| ~ amplitude * exp(-delta k) / k**p on a mode window."""

    amplitude: float
    delta: float
    p: float
    k_window: tuple[int, int]
    n_modes: int
    residual: float


def fit_fourier_decay(field: SpectralField,
                      window: tuple[float, float] = (0.25, 1.0 / 3.0)
                      ) -> DecayFit:
    """Least-squares fit of the high-k envelope of the spectrum.

    Uses modes k in [window[0]*N, window[1]*N] (default [N/4, N/3], the
    best balance between round-off and asymptotic decay); raises
    SpectrumTooCleanError when fewer than 16 of them sit above the
    round-off floor FLOOR_TOL * max |w_k|.
    """
    n = field.grid_size
    k_lo = max(1, int(window[0] * n))
    k_hi = max(k_lo + 1, int(window[1] * n))
    coeffs = field.coeffs
    k = np.arange(k_lo, k_hi + 1)
    mags = np.abs(coeffs[k])
    peak = np.max(np.abs(coeffs))
    keep = mags > FLOOR_TOL * peak
    if np.count_nonzero(keep) < MIN_WINDOW_MODES:
        raise SpectrumTooCleanError(
            f"only {np.count_nonzero(keep)} modes above the noise floor in "
            f"k window [{k_lo}, {k_hi}]")
    k, mags = k[keep], mags[keep]
    # log|w_k| = log C - delta*k - p*log k
    design = np.column_stack([np.ones_like(k, dtype=float), -k.astype(float),
                              -np.log(k.astype(float))])
    rhs = np.log(mags)
    sol, res, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = float(np.sqrt(res[0] / k.size)) if res.size else 0.0
    return DecayFit(amplitude=float(np.exp(sol[0])), delta=float(sol[1]),
                    p=float(sol[2]), k_window=(int(k_lo), int(k_hi)),
                    n_modes=int(k.size), residual=resid)


def delta_to_x(delta: float, domain: Domain,
               at_boundary: bool = False) -> float:
    """Map the q-space strip width delta to the x-space distance delta_x.

    On the circle the two agree.  On the compactified line x = tan(q/2),
    a singularity approaching the axis near q = 0 satisfies
    delta_x = tanh(delta/2), while one near q = +-pi (i.e. x -> infinity)
    satisfies delta_x = coth(delta/2).
    """
    if domain is Domain.CIRCLE:
        return float(delta)
    if at_boundary:
        return float(1.0 / np.tanh(delta / 2.0))
    return float(np.tanh(delta / 2.0))


@dataclass
class RationalApprox:
    """Barycentric rational approximation with its pole/residue pairs."""

    support_points: np.ndarray
    poles: np.ndarray
    residues: np.ndarray
    max_error: float
    non_converged: bool
    interval: tuple[float, float]  # span of the sample points' real parts

    def poles_near_axis(self) -> np.ndarray:
        """Poles sorted by distance to the sampled interval of the axis."""
        nearest = np.clip(self.poles.real, *self.interval)
        return self.poles[np.argsort(np.abs(self.poles - nearest))]


def _weights(loewner: np.ndarray, ill: bool) -> tuple[np.ndarray, bool]:
    """Barycentric weights of one AAA step: the right singular vector of the
    smallest singular value of the Loewner matrix, a null vector once it
    is wide (TestRationalApprox::test_wide_loewner_interpolates). Once its
    condition number passes 1/(3 eps) the columns are scaled to unit norm
    first, for this and every later step, as scipy's AAA does
    (TestDoubletCleanUp::test_round_off_doublets_leave_the_one_pole)."""
    wide = loewner.shape[0] < loewner.shape[1]
    scale = 1.0
    if not ill:
        _, s, vh = np.linalg.svd(loewner, full_matrices=wide)
        with np.errstate(divide="ignore", invalid="ignore"):
            ill = bool(s[0] / s[-1] > ILL_CONDITIONED)
    if ill:
        scale = np.linalg.norm(loewner, axis=0)
        _, s, vh = np.linalg.svd(loewner / scale, full_matrices=wide)
    return vh[-1].conj() / scale, ill


def _barycentric(z: np.ndarray, zj: np.ndarray, fj: np.ndarray,
                 wj: np.ndarray) -> np.ndarray:
    """The rational sum(w f/(z - zj)) / sum(w/(z - zj)) at the points z,
    f itself at the support points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cauchy = 1.0 / np.subtract.outer(z, zj)
        r = cauchy @ (wj * fj) / (cauchy @ wj)
    hit = np.nonzero(z[:, None] == zj)
    r[hit[0]] = fj[hit[1]]
    return r


def _poles(zj: np.ndarray, wj: np.ndarray) -> np.ndarray:
    """Zeros of the denominator d(z) = sum(w/(z - zj)), each finished by
    Newton steps on d.

    With the support point k of the largest weight as pivot and
    y = zj - zj[k] over the others, the zeros are zj[k] + 1/nu for the
    eigenvalues nu of diag(1/y) + (w/w_k)(1/y)^T; a zero eigenvalue is a
    pole at infinity (sum(w) = 0), dropped as scipy drops it.
    """
    k = np.argmax(np.abs(wj))
    y, w = np.delete(zj, k) - zj[k], np.delete(wj, k)
    nu = np.linalg.eigvals(np.diag(1.0 / y) + np.outer(w / wj[k], 1.0 / y))
    p = zj[k] + 1.0 / nu[nu != 0]
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            c = 1.0 / np.subtract.outer(p, zj)
            step = (c @ wj) / -(c**2 @ wj)
            p = np.where(np.isfinite(step), p - step, p)
    return p


def _residues(poles: np.ndarray, zj: np.ndarray, fj: np.ndarray,
              wj: np.ndarray) -> np.ndarray:
    """n(p)/d'(p) at each pole p of the barycentric form n/d."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 / np.subtract.outer(poles, zj)
        return (c @ (wj * fj)) / -(c**2 @ wj)


def aaa_approximate(points: np.ndarray, values: np.ndarray,
                    tol: float = AAA_TOL,
                    max_degree: int = 100) -> RationalApprox:
    """AAA rational fit of sampled values with spurious poles removed.

    Greedy AAA (Nakatsukasa, Sete & Trefethen 2018) on distinct points, as
    scipy.interpolate.AAA(points, values, rtol=tol, max_terms=max_degree)
    runs it: each step adds the point of largest error as a support point
    and takes the weights from the Loewner matrix on the other points,
    until the error is at most tol * max|values|. Froissart doublets, poles
    with |residue| / (distance to the nearest point) below
    AAA_CLEAN_UP_TOL times the geometric mean of |values|, then lose their
    nearest support point, and the weights are solved again, as scipy's
    clean-up does. ``non_converged`` is set, and nothing is warned, when
    the error still exceeds tol * max|values|.
    """
    z, f = np.asarray(points), np.asarray(values)
    free = np.ones(z.size, dtype=bool)
    loewner = np.empty((z.size, max_degree), dtype=np.result_type(z, f, 1.0))
    atol = tol * max(float(np.max(np.abs(f))), 1e-300)
    r, sup, ill = np.full(z.size, np.mean(f)), [], False
    for m in range(max_degree):
        j = np.flatnonzero(free)[np.argmax(np.abs(f - r)[free])]
        free[j] = False
        sup.append(j)
        with np.errstate(divide="ignore", invalid="ignore"):
            loewner[:, m] = (f - f[j]) / (z - z[j])
        wj, ill = _weights(loewner[free, :m + 1], ill)
        r = _barycentric(z, z[sup], f[sup], wj)
        if np.max(np.abs(f - r)) <= atol:
            break
    used = wj != 0
    zj, fj, wj = z[sup][used], f[sup][used], wj[used]
    poles = _poles(zj, wj)
    with np.errstate(divide="ignore", invalid="ignore"):
        gmean = np.exp(np.mean(np.log(np.abs(f))))
        dist = np.min(np.abs(np.subtract.outer(poles, z)), 1)
        doublet = np.abs(_residues(poles, zj, fj, wj)) / dist \
            < AAA_CLEAN_UP_TOL * gmean
    if np.any(doublet):
        drop = np.argmin(np.abs(np.subtract.outer(zj, poles[doublet])), 0)
        zj, fj = np.delete(zj, drop), np.delete(fj, drop)
        rest = ~np.isin(z, zj)
        c = 1.0 / np.subtract.outer(z[rest], zj)
        wj = np.linalg.svd(f[rest, None] * c - c * fj,
                           full_matrices=False)[2][-1].conj()
        poles = _poles(zj, wj)
    err = float(np.max(np.abs(_barycentric(z, zj, fj, wj) - f)))
    return RationalApprox(
        support_points=zj, poles=poles,
        residues=_residues(poles, zj, fj, wj), max_error=err,
        non_converged=bool(err > atol),
        interval=(float(np.min(z.real)), float(np.max(z.real))),
    )
