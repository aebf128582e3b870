"""arithdyn: exact heights, iteration statistics and counting toolkits.

Import each name from the module that defines it (``arithdyn.polymap``,
``arithdyn.exactnum.series``, ``arithdyn.countkit.census``, ...): the package
loads nothing itself, so a CLI verb compiles only the modules it runs.
"""

__version__ = "0.1.0"
