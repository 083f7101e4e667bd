"""Center-focus, isochronicity and cyclicity analysis of Hopf equilibria of
three-dimensional polynomial differential systems.

Symbolic results are computed in exact rational (or truncated-jet) arithmetic
and cross-validated numerically by adaptive integration.  The Python API is
the submodules, for example ``hopfcm.catalog.build`` and
``hopfcm.focusq.report_for_field``.
"""
