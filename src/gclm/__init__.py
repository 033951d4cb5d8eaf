"""Spectral laboratory for the 1D dissipative gCLM equation.

The model is

    w_t = -a u w_x + w H(w) - nu * Lambda^sigma w,    u_x = H(w),

posed on the circle or (via x = tan(q/2)) on the real line. The package
contains the pseudo-spectral solver, exact pole-dynamics solutions used
as oracles, complex-singularity tracking from Fourier decay and rational
approximation, collapse-exponent fitting, and a run harness.
"""

__version__ = "0.1.0"

from gclm.spectral import Domain, GclmParams, NormReport, SpectralField
from gclm.dynamics import RunControls, SimState, TimeSeries, TerminalStatus, simulate
from gclm import exact, tracker, collapse, harness

__all__ = [
    "__version__",
    "Domain",
    "GclmParams",
    "NormReport",
    "SpectralField",
    "RunControls",
    "SimState",
    "TimeSeries",
    "TerminalStatus",
    "simulate",
    "exact",
    "tracker",
    "collapse",
    "harness",
]
