"""Exact-arithmetic toolkit for polynomial sum-product growth.

Classifies bivariate polynomials over Q by composition structure, certifies
reducible fibers against the Stein bound, builds translated-curve incidence
statistics, and measures |A+A| * |f(A,A)| against |A|^(5/2) on generated set
families, all in exact rational arithmetic.
"""

from .classify import (
    CompositenessVerdict,
    Decomposition,
    decompose,
    decompose_fully,
    is_composite,
    is_degenerate,
    normalize_orientation,
)
from .errors import (
    BoundViolated,
    CertificationFailed,
    ConstantPolynomial,
    DegenerateSpec,
    DegenerateSystem,
    DegreeCapExceeded,
    FactorBudgetExceeded,
    HypothesisViolated,
    NotSquarefree,
    SumprodError,
    UnivariateInput,
)
from .explorer import (
    ApSpec,
    ExperimentRecord,
    GpSpec,
    RandomIntSpec,
    RatSet,
    generate_set,
    image_set,
    run_scan,
    sumset,
)
from .factor import (
    AbsReducibleWitness,
    FactorList,
    FiberPencil,
    count_abs_factors,
    factor_rational,
    factor_univariate,
    rational_roots,
    squarefree_part,
)
from .geometry import (
    CommonFactor,
    CurveFamily,
    IncidenceReport,
    SolutionCount,
    build_family,
    check_class_bound,
    curve_pair_solutions,
    incidence_report,
)
from .parsing import format_bipoly, format_unipoly, parse_poly, poly_from_json, poly_to_json
from .poly import (
    BiPoly,
    UniPoly,
    bi_divexact,
    bi_gcd,
    resultant_eliminating,
    uni_gcd,
)
from .spectrum import (
    PrunedGrid,
    SigmaHit,
    SigmaReport,
    remove_sigma_rows,
    sigma_candidates,
    sigma_scan,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
