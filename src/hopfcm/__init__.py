"""Center-focus, isochronicity and cyclicity analysis of Hopf equilibria of
three-dimensional polynomial differential systems.

Symbolic results are computed in exact rational (or truncated-jet) arithmetic
and cross-validated numerically by adaptive integration.
"""

__version__ = "0.1.0"

from .catalog import BUILTIN_SYSTEMS, build
from .focusq import (
    FocusReport,
    complexify,
    focus_quantities,
    report_for_field,
    verify_center_conditions,
    verify_first_integral,
)
from .normalform import NormalForm3, to_normal_form
from .paramfield import GaussExpr, Jet, JetContext, ParamExpr, ParamPoly
from .period import PeriodExpansion, isochronicity_constants
from .polysys import StatePoly, VectorField3, char_cubic, hopf_test, parse_system

__all__ = [
    "BUILTIN_SYSTEMS",
    "FocusReport",
    "GaussExpr",
    "Jet",
    "JetContext",
    "NormalForm3",
    "ParamExpr",
    "ParamPoly",
    "PeriodExpansion",
    "StatePoly",
    "VectorField3",
    "build",
    "char_cubic",
    "complexify",
    "focus_quantities",
    "hopf_test",
    "isochronicity_constants",
    "parse_system",
    "report_for_field",
    "to_normal_form",
    "verify_center_conditions",
    "verify_first_integral",
]
