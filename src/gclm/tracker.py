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

    def poles_near_axis(self) -> np.ndarray:
        """Poles sorted by distance |Im p| to the real axis."""
        return self.poles[np.argsort(np.abs(self.poles.imag))]


def aaa_approximate(points: np.ndarray, values: np.ndarray,
                    tol: float = AAA_TOL,
                    max_degree: int = 100) -> RationalApprox:
    """AAA rational fit of sampled values with spurious poles removed.

    Froissart doublets (see AAA_CLEAN_UP_TOL) are stripped by scipy's
    clean-up; ``non_converged`` is set when the requested tolerance was not
    reached within ``max_degree`` support points.
    """
    # imported on use: a scipy subpackage costs ~0.5 s and 50 MB to load
    from scipy.interpolate import AAA
    approx = AAA(points, values, rtol=tol, max_terms=max_degree,
                 clean_up=False)
    # scipy's own doublet test: its clean_up, which imports scipy.stats for
    # the geometric mean, runs only when the test finds a doublet
    with np.errstate(divide="ignore", invalid="ignore"):
        gmean = np.exp(np.mean(np.log(np.abs(values))))
        dist = np.min(np.abs(np.subtract.outer(approx.poles(), points)), 1)
        doublet = np.abs(approx.residues()) / dist < AAA_CLEAN_UP_TOL * gmean
    if np.any(doublet):
        approx.clean_up(AAA_CLEAN_UP_TOL)
    err = float(np.max(np.abs(approx(points) - values)))
    scale = float(np.max(np.abs(values)))
    return RationalApprox(
        support_points=np.asarray(approx.support_points),
        poles=np.asarray(approx.poles()),
        residues=np.asarray(approx.residues()),
        max_error=err,
        non_converged=bool(err > tol * max(scale, 1e-300)),
    )
