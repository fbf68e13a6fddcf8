"""Exact commutative-algebra engine and verification harness for the
affine charts of orthogonal local models.

The package has three layers:

* an exact Groebner kernel (``fields``, ``rings``, ``orders``, ``groebner``,
  ``ideals``) over the rationals or an odd prime field;
* chart constructors (``charts``) producing every named ideal of the model
  in the four parity cases of (d, l);
* machine checks (``verify``) that replay the structural claims about those
  ideals (reduction to a quadric hypersurface in a determinantal scheme,
  fiber dimensions, pi-regularity, special-fiber decomposition) and a small
  CLI (``cli``) around them.
"""

from .fields import QQ, PrimeField, coefficient_field
from .orders import GRLEX, LEX, Block, order_from_name
from .rings import Polynomial, Ring, cast, parse_polynomial
from .groebner import Budget, GroebnerBasis, buchberger
from .ideals import Ideal, hilbert_numerator, krull_dimension
from .charts import Chart, gram_matrices
from .verify import (CHECK_NAMES, DEFAULT_SUITE, CheckResult, ChartReport,
                     EngineConfig, SuiteReport, run_suite, verify_check)

__all__ = [
    "QQ", "PrimeField", "coefficient_field",
    "GRLEX", "LEX", "Block", "order_from_name",
    "Polynomial", "Ring", "cast", "parse_polynomial",
    "Budget", "GroebnerBasis", "buchberger",
    "Ideal", "hilbert_numerator", "krull_dimension",
    "Chart", "gram_matrices",
    "CHECK_NAMES", "DEFAULT_SUITE", "CheckResult", "ChartReport",
    "EngineConfig", "SuiteReport", "run_suite", "verify_check",
]
