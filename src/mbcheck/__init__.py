"""Runtime checking of model-based class contracts.

Subpackages:

- ``values``: immutable model values (sequences, sets, bags) with
  structural equality.
- ``engine``: specification bindings and the checked-call protocol (invariants,
  preconditions, snapshots, postconditions, derived frame checks), plus a
  bounded completeness probe.
- ``containers``: reference container classes with paired weak/strong
  specification bindings and a catalog of seeded bugs.
- ``harness``: seeded random-testing sessions, fault classification, session
  comparison, and the ``mbc-test`` command line.
"""

__version__ = "0.1.0"
