"""Exact verification of composite operator families.

Two halves of the library share one report vocabulary: shift operators
over exact rational-function coefficients (with adjoints, deviations and
boundedness classes on a weighted polynomial module), and
finite-dimensional composites of overlapping Lie subalgebras (with the
octahedron/so(4) pipeline as the worked example).
"""

from .errors import (
    DimensionMismatchError,
    DomainError,
    LibError,
    MalformedInputError,
    NegativeExponentError,
    ParseError,
    PoleError,
    ZeroDenominatorError,
)
from .exact import RationalFunc, parse, qhn_const, var_h, var_n
from .findim import (
    FinDimComposite,
    FinDimRep,
    SubspaceAlgebra,
    check_compatibility,
    check_connected,
    check_dense,
    check_representation,
    load_composite,
    load_rep,
)
from .octa import (
    So4Extraction,
    build_octahedron,
    extract_so4,
    killing_certificate,
    so3_irrep,
    so4_composite_rep,
)
from .report import CheckItem, CheckReport
from .shiftop import OperatorClass, ShiftOperator
from .verma import (
    GeneratorId,
    bracket,
    check_absolutely_closed,
    check_absolutely_symmetric,
    check_extended_composite,
    check_hs_deviations,
    check_symmetric,
    check_witt_composite,
    deviation,
    e,
    f,
    op_F,
    op_L,
    represent,
    tail_equivalence_report,
    tail_square_equivalence,
    tail_square_probe,
)

__all__ = [
    "CheckItem",
    "CheckReport",
    "DimensionMismatchError",
    "DomainError",
    "FinDimComposite",
    "FinDimRep",
    "GeneratorId",
    "LibError",
    "MalformedInputError",
    "NegativeExponentError",
    "OperatorClass",
    "ParseError",
    "PoleError",
    "RationalFunc",
    "ShiftOperator",
    "So4Extraction",
    "SubspaceAlgebra",
    "ZeroDenominatorError",
    "bracket",
    "build_octahedron",
    "check_absolutely_closed",
    "check_absolutely_symmetric",
    "check_compatibility",
    "check_connected",
    "check_dense",
    "check_extended_composite",
    "check_hs_deviations",
    "check_representation",
    "check_symmetric",
    "check_witt_composite",
    "deviation",
    "e",
    "extract_so4",
    "f",
    "killing_certificate",
    "load_composite",
    "load_rep",
    "op_F",
    "op_L",
    "parse",
    "qhn_const",
    "represent",
    "so3_irrep",
    "so4_composite_rep",
    "tail_equivalence_report",
    "tail_square_equivalence",
    "tail_square_probe",
    "var_h",
    "var_n",
]
