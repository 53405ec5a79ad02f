"""Exact invariants of links in negative-definite plumbed rational homology spheres.

Subpackages:

- ``linalg``: exact integer/rational matrix arithmetic (Bareiss determinants,
  Gauss–Jordan inverses, Smith normal form).
- ``plumbing``: plumbing trees, intersection forms, characteristic vectors,
  boundary spin-c classes and correction terms.
- ``tau``: the lattice tau-invariant of leaf-fibre links, tables and extrema.
- ``surgery``: linking-matrix formulas for surgery presentations, self-linking
  numbers, braid and curve identities.
- ``floer``: filtered chain complexes over F2[U], correction terms,
  theta-supported cycles and tau of Alexander-type filtrations.
- ``obstruct``: decision procedures obstructing links from bounding
  holomorphic curves in Stein fillings.
- ``paper``: the paper's examples in L(9,2) and L(4,1) and their golden tables.
- ``cli``: JSON front end and regression tables.
"""

__version__ = "0.1.0"
