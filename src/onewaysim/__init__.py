"""Noisy one-way (measurement-based) quantum computation toolkit.

A closed-form fidelity engine for decohered resource states, a brute-force
density-matrix oracle that validates it, and correlation measures of the
resource.
"""

__version__ = "0.1.0"
