"""ihskit: exact lattice arithmetic, wall-and-chamber combinatorics, and
analytic-torsion bookkeeping for involutions of the rank-23 degree-2 form
lattice.

The package is organized by domain; import names from the submodules:

* ``lattice``  - integral quadratic lattices, invariants, built-in catalog
* ``isometry`` - reflections, factorization, spinor norm, admissible involutions
* ``chambers`` - wall sets with completeness certificates, rank-2 chambers
* ``forms``    - truncated characteristic-form algebra and its identities
* ``torsion``  - spectral zeta derivatives, torsion, numerology, assembly
* ``cli``      - deterministic JSON command line front end
"""

__version__ = "0.1.0"
