"""repstat: exact dimension and conjugacy-class statistics of finite groups.

Symmetric groups (hook lengths, class equation, Plancherel sampling),
GL_n over finite fields (class-count and degree-sum polynomials), and
small unitriangular groups (coadjoint orbits), all in exact arithmetic.
Library names are imported from their modules (``repstat.partitions``,
``repstat.symstats``, ``repstat.rsk``, ``repstat.qseries``,
``repstat.kirillov``, and ``repstat.errors`` for the errors they raise);
the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
