"""condet: exact matrix determinants by pivot-anchored condensation.

The package collapses an n x n matrix into an (n-1) x (n-1) matrix of
2x2 minors anchored at a pivot entry, which multiplies the determinant
by pivot**(n-2); repeating the step and dividing the pivot powers back
out yields the determinant.  Independent classical oracles (cofactor
expansion, fraction-free Bareiss elimination, rational Gaussian
elimination) cross-check every piece, and a seeded bench measures
operation counts and entry growth.

Each module's ``__all__`` declares its public names, and the package
exports exactly those, plus ``__version__``; other module attributes,
such as ``condet.bench.METHODS``, are not public names.
"""

from . import bench, condense, matrix, oracle, scalars
from .bench import *
from .condense import *
from .matrix import *
from .oracle import *
from .scalars import *

__version__ = "0.1.0"

__all__ = [*matrix.__all__, *scalars.__all__, *condense.__all__, *oracle.__all__, *bench.__all__, "__version__"]
