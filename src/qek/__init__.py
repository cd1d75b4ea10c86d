"""q-calculus numerics with error-controlled truncation.

Layers, bottom up:

* :mod:`qek.qcore` -- q-products, q-Gamma, q-factorial and the q-power
  kernel, all under an explicit truncation policy: q-products carry a
  certified error bound, node sums a tail estimate that assumes a
  geometric tail.
* :mod:`qek.jackson` -- the Jackson q-integral over (0, b].
* :mod:`qek.functions` -- a closed function DSL whose expression trees are
  the specs (every node is a :class:`FunctionSpec`) and whose monotone
  directions, bounds, nonnegativity and Lipschitz constants are certified
  on any [0, T] from the tree, plus seeded family generation.
* :mod:`qek.ekoperator` -- the generalized Erdelyi-Kober fractional
  q-integral operator (series and integral forms) and the Kober operator.
* :mod:`qek.inequalities` -- ``evaluate_case``, the one evaluator of six
  Chebyshev-type operator inequalities, with margin/verdict reports.
* :mod:`qek.cli` -- the ``qek`` command line front end (eval, verify,
  sweep, reduce-check).
"""

from .errors import (
    DomainError,
    HypothesisViolatedError,
    NotConvergedError,
    NotLipschitzError,
    PoleError,
    QekError,
)
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    q_factorial,
    q_gamma,
    q_power_alpha,
)
from .jackson import jackson_integral
from .functions import (
    Affine,
    BoundsTriple,
    Const,
    FunctionFamily,
    FunctionSpec,
    LipschitzTriple,
    PiecewiseLinear,
    Power,
    Product,
    Scale,
    Sum,
    check_synchronous,
    extract_bounds,
    extract_lipschitz,
    generate_family,
    generate_weight,
    monotonicity_on,
    parse_function_spec,
    format_expr,
)
from .ekoperator import (
    OperatorParams,
    OperatorResult,
    ek_integral,
    ek_series,
    kober,
)
from .inequalities import (
    InequalityReport,
    TheoremCase,
    evaluate_case,
    proof_kernel_A,
)

__version__ = "0.1.0"
