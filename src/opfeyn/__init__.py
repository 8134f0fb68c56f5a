"""Numerical laboratory for operator-valued Feynman integrals over drifted
Gaussian path spaces.

The package evaluates an analytic operator-valued transform of bounded
shift-invariant functionals two independent ways -- a Monte Carlo path
average for real parameters and a closed-form kernel for complex ones --
and checks every magnitude bound, admissibility region, and divergence
witness that the closed form comes with.
"""

from .errors import (ArgOutOfRange, BadConfig, ConfigError, InfiniteDrift,
                     InvalidGrid, KernelOverflow, MeasureUnderflow,
                     MismatchedScalePair, NonPositiveLambda,
                     NonPositiveVariance, NonzeroOrigin, NotAdmissible,
                     NotInFq0, OpfeynError, OutOfDomain, PsiNotIntegrable,
                     QuadratureError, SequenceLeavesRegion, UnknownExample,
                     UnsupportedVariant, ZeroDirection, ZeroLambda)
from .scale import ScalePair, drifted_pair, preset_scale, wiener_pair
from .hilbert import (CambElement, a_element, a_unit_element, b_element,
                      combine, from_density, inner, monomial_element,
                      pair_with_a, preset_direction, s_star, zero_element)
from .sampler import RngStream, sample_increments
from .psi import (Envelope, PsiFn, bump_psi, divergence_witness_psi,
                  gaussian_psi, shifted_gaussian_psi)
from .fresnel import (AtomicMeasure, EtaAtoms, EtaDensity, EtaGaussian,
                      FresnelFunctional, LineMeasure, convolve,
                      eval_from_projections, gallery, kq0_integral,
                      unit_functional)
from .kernels import DirectionStats, KernelContext, LambdaParam, kernel_M
from .engine import (BoundSweepResult, ConvergenceStudy, DivergencePartial,
                     GaussianIdentityResult, OperatorResult,
                     bound_chain_sweep, convergence_study,
                     divergence_witness_partial, gaussian_identity_check,
                     i_lambda_mc, j_q, k_lambda, nu_delta_norm, op_norm_bound,
                     sample_interior_lambda, unit_spot_check)
from .config import RunConfig, config_from_dict, load_config

__version__ = "0.1.0"
