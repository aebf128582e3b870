"""Counting toolkit: coverings, zero bounds, interpolation thresholds,
extremal partition combinatorics, bound-shape evaluators, rigorous modular
values, and the bounded-height rational census.

The package exports nothing: import each name from its module
(``countkit.census``, ``countkit.modular``, ``countkit.shapes``, ...), so
that a verb loads only the modules it runs.  ``census`` of lambda, for
one, needs ``census`` and ``modular`` and none of the other five.
"""
