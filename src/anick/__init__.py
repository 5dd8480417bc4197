"""Groebner bases, Anick chains and resolutions, and Hilbert series.

Exact computation over the rationals for finitely presented associative
algebras, commutative or free noncommutative.  The main entry points:

- :mod:`anick.presentation` -- parse/build presentations (including the
  ``B_n`` family),
- :mod:`anick.commutative` / :mod:`anick.noncommutative` -- Groebner bases,
  normal forms, normal words,
- :mod:`anick.chains` -- chains and chain counts on the obstruction set,
- :mod:`anick.resolution` -- the resolution, its verification, and Tor,
- :mod:`anick.hilbert` -- Hilbert series by two independent routes,
- :mod:`anick.cli` -- the ``anick`` command.
"""

from .algebra import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    DEGLEX,
    LEX,
    AlgebraError,
    BoundError,
    Generator,
    Polynomial,
    Presentation,
)

__all__ = [
    "COMMUTATIVE",
    "NONCOMMUTATIVE",
    "DEGLEX",
    "LEX",
    "AlgebraError",
    "BoundError",
    "Generator",
    "Polynomial",
    "Presentation",
]

__version__ = "0.1.0"
