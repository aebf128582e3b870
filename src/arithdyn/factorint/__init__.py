"""Univariate integer polynomial factorization into irreducibles.

Import each name from its module (``factorint.zassenhaus`` for
``factor_over_Z``, ``factor_over_Q`` and ``FactorReport``,
``factorint.capelli`` for ``chain``, ``factorint.modp`` for the F_p[x]
kernels): the package loads nothing itself, so ``factor`` and
``height --min-poly`` do not load the Capelli chains that only ``snap`` runs.
"""
