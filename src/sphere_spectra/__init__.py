"""Eigenvalue spectra of viscous flow perturbations on a full or truncated
sphere: truncated power-series determinant solver, shooting oracle,
closed-form reference spectra (not imported with the package: import
`sphere_spectra.analytic`) and parameter-continuation root tracing."""

__version__ = "0.1.0"

from .core import (GridTooCoarseWarning, NonFiniteError, Root, SpectralParams,
                   canonicalize_s, in_stability_domain, mu_of_s)
from .series import SeriesCoefficients, coeffs, eval_series
from .boundary import (assemble, det_functional, eigenfunction_coeffs,
                       null_seeds)
from .rootfinder import (Branch, CoalescenceEvent, ScanConfig, refine_complex,
                         scan_real_roots, trace_parameter)
from .oracle import shoot_functional
