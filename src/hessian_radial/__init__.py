"""Radial subsolutions of k-Hessian type equations with gradient terms.

Construction, classification and verification of entire radial admissible
subsolutions of S_k^(1/k)(D^2 u + mu |Du| I) = f(u): a Cauchy solver for the
radial reduction (break line and fixed point), finite blow-up detection, a
divergence test for the growth integral that separates existence from
nonexistence, and closed-form Gaussian candidate verifiers.
"""

from .symmetric import binom, elem_sym, elem_sym_all, in_gamma_k, mu_zero
from .nonlinearity import Nonlinearity, parse_f_spec
from .radial import (AdmissibilityError, ProblemParams, SingularityError,
                     chi, ddphi_at_zero, dphi_from_integral)
from .solver import (SCHEMA_ID, BlowupReport, NonConvergenceError,
                     RadialProfile, detect_blowup, euler_break_line,
                     per_cell_defect, picard_solve)
from .keller_osserman import (CONVERGES, DIVERGES, EXISTS, INCONCLUSIVE,
                              NOT_EXISTS, OUTSIDE_THEORY, ExistenceReport,
                              KOVerdict, existence_verdict,
                              ko_classify_analytic, ko_classify_numeric)
from .gaussian import (GaussianCandidate, RadiusCheck, SubsolutionReport,
                       default_radii, gaussian_spectrum, gaussian_threshold,
                       gaussian_threshold_negative_mu, verify_subsolution)

__version__ = "0.1.0"
