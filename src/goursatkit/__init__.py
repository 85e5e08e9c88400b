"""Torsion tensors, kind classification, solution families and Frobenius
integrability checks for codimension-one (n+1)-webs given in closed form."""

__version__ = "0.1.0"

from .classify import (Box, ClassificationReport, classify, first_kind_pde_residual,
                       first_kind_residual, second_kind_pde_residual,
                       second_kind_residuals, torsion_minors)
from .exterior import (CoFormField, FrobeniusReport, PfaffianSystem, SYSTEM_NAMES,
                       d_form, frobenius_residual, kernel_basis, make_system,
                       rank_at, subspace_distance)
from .expr import Expr, evaluate, parse, to_text
from .families import (FamilySpec, NoConvergence, SingularEnvelope, constraint,
                       family_web, parameter_jet, solve_parameter)
from .identities import (ConditionValues, condition_values,
                         first_kind_derivative_residuals, implication_test,
                         polynomial_sweep, sample_second_kind_torsion,
                         second_kind_polynomial_residuals, witness_search)
from .jets import Jet, apply_unary, eval_jet, seed
from .web import (Gauge, PfaffianDerivs, RegularityError, TorsionTensor,
                  WebFunction, coframe, pfaffian_derivs, torsion)

__all__ = [name for name in dir() if not name.startswith("_")]
