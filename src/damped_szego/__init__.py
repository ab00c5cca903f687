"""Spectral toolkit for the damped cubic Szego equation on the torus.

Import from its submodules.
"""

__version__ = "0.1.0"
