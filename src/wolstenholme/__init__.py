"""Exact-arithmetic toolkit for Wilson/Wolstenholme-type congruences.

The package verifies, at desk scale, every congruence and identity around
the central binomial value w(n) = C(2n-1, n-1): Wilson and Wolstenholme
residues, the modified binomial w'(n) and its divisor-product relation,
the two-prime pair criterion, elementary-symmetric/Stirling identities,
the Wolstenholme polynomial W(p), and checkpointable conjecture scans.
All arithmetic is exact (big integers and rationals); nothing here uses
floating point.

Each module's ``__all__`` is its public API; the package re-exports those of
the library modules below, and ``__all__`` here is their concatenation.
"""

from . import arith, congruence, search, symmetric, wpoly
from .arith import *
from .congruence import *
from .symmetric import *
from .wpoly import *
from .search import *

__all__ = [
    *arith.__all__,
    *congruence.__all__,
    *symmetric.__all__,
    *wpoly.__all__,
    *search.__all__,
]

__version__ = "0.1.0"
