"""Complex scalar wavefield toolkit.

Spectral propagators for the classical wave equation and its
Schrodinger-shaped first-order reduction, polar-form (density/phase)
diagnostics including the quantum potential, finite-dimensional measurement
algebra, photon occupancy statistics, and thermal vacuum-energy
phenomenology.  CGS-Gaussian units throughout.
"""

__version__ = "0.1.0"
