"""Numerical toolkit for stratified (Carnot) Lie groups with hypoelliptic
heat kernel measure.

Subpackages:

- ``algebra``      stratified Lie algebras from structure constants
- ``group``        exact BCH group law, dilations, homogeneous quasi-norm
- ``calculus``     scalar fields with exact 2-jet derivatives
- ``heat``         heat kernel sampling via horizontal random walks
- ``lsh``          log-subharmonicity checks and the LSH closure algebra
- ``inequalities`` Monte Carlo estimators and inequality checkers
- ``cli``          command line entry point and experiment orchestration
"""

__version__ = "0.1.0"

from . import algebra, calculus, errors, group, heat, inequalities, lsh, reports

__all__ = [
    "__version__",
    "algebra",
    "calculus",
    "errors",
    "group",
    "heat",
    "inequalities",
    "lsh",
    "reports",
]
