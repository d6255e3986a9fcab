"""pdmdirac: exactly solvable position-dependent-mass Dirac problems.

A pseudo-Hermitian oscillator-type operator is mapped to a Hermitian
equivalent, tied to the 1+1 Dirac equation with position-dependent mass, and
reduced to two shape-invariant Schroedinger problems (hyperbolic Rosen-Morse
on the line, generalized Poschl-Teller on the half line) whose exact spectra
and wavefunctions are cross-checked against an independent finite-difference
eigensolver.
"""

from .errors import ConvergenceError, DomainError, PoleError, SingularityError
from .model import (BetaMode, ConstraintSolution, CoshProfile, CothProfile,
                    ModelParams, ProfileValues, derived_constants,
                    derived_constants_from_params, evaluate_profile,
                    m1_linear_constraint, profile_from_params, sigma_of)
from .hermitization import (OperatorCoefficients, apply_operator,
                            hermitian_coeffs, nonhermitian_coeffs, rho_weight,
                            schrodinger_potential)
from .dirac import (DiracPotential, MassProfile, RealPotential, SpinorPair,
                    cancellation_residual, complete_potential,
                    consistent_energy_cosh, dirac_profiles,
                    effective_potential_ansatz,
                    effective_potential_general, spinor_components)
from .susy import (GPTSolution, Level, LevelSpectrum, PartnerPotentials,
                   PoschlTellerSuperpotential, RM2Coeffs, RM2Solution,
                   RosenMorseSuperpotential, gpt_admissible, gpt_params_ab,
                   gpt_solve, gpt_solve_from_params, ground_state_samples,
                   ladder_state, partner_potentials, rm2_admissible,
                   rm2_coefficients_from_params, rm2_level_radicand,
                   rm2_solve, rm2_solve_from_params, si_check,
                   si_remainder_ladder)
from .wavefunctions import (BoundState, gpt_state_evaluator,
                            gpt_wavefunction, jacobi_derivative, jacobi_eval,
                            jacobi_eval_sum, jacobi_recurrence_degenerate,
                            rm2_exponents, rm2_state_evaluator,
                            rm2_wavefunction)
from .numerics import (EigenResult, Grid, count_nodes,
                       discretize_and_solve, first_derivative, ode_residual,
                       quadrature_norm, quadrature_weights,
                       second_derivative_interior)

__version__ = "0.1.0"
