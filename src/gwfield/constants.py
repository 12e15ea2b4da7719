"""Physical constants in CGS-Gaussian units.

Every numeric output of this package is CGS (erg, cm, s, K, G, esu).  All
constants live in a single frozen table so that tests and downstream code can
reference one source instead of scattering literals.  The table is literal
data; ``gwfield check`` certifies the identities that tie its entries together
(the ``constants-identities`` entry of :mod:`gwfield.selfcheck`), and only the CLI
manifest hashes it.

It also holds :func:`require_positive`, the one refusal of a physical parameter that must
be finite and positive (a temperature, a length, a frequency, a mass),
:func:`require_nonnegative`, the one refusal of one that must be finite and >= 0 (a mass
parameter mu, an elapsed time), and :func:`thermal_energy`, the one home of kT and of its
refusal: every layer imports this module already, and it imports no numpy, ``hashlib`` or
``json``, so the checks cost no layer an import of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CgsConstants:
    """CODATA constants expressed in CGS-Gaussian units.

    Attributes
    ----------
    hbar : reduced Planck constant [erg s]
    c : speed of light [cm/s]
    k_B : Boltzmann constant [erg/K]
    mu_B : Bohr magneton [erg/G]
    e_charge : elementary charge [esu]
    m_e : electron mass [g]
    alpha : fine-structure constant [1]
    l_P : Planck length [cm]
    omega_P : Planck angular frequency, c / l_P [rad/s]
    """

    hbar: float = 1.054571817e-27
    c: float = 2.99792458e10
    k_B: float = 1.380649e-16
    mu_B: float = 9.2740100783e-21
    e_charge: float = 4.80320471e-10
    m_e: float = 9.1093837015e-28
    alpha: float = 7.2973525693e-3
    l_P: float = 1.616255e-33
    omega_P: float = 1.8548586578e43

    @property
    def h(self) -> float:
        """Planck constant [erg s]."""
        return 2.0 * math.pi * self.hbar


CGS = CgsConstants()


def require_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and > 0 (NaN and inf fail)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def require_nonnegative(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and >= 0 (NaN and inf fail)."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def thermal_energy(T: float) -> float:
    """kT = k_B * T [erg] of a temperature ``T`` [K].  Raises ValueError naming ``T`` unless it is
    finite and > 0 and its kT is a nonzero float (a subnormal T underflows k_B*T to 0)."""
    require_positive("T", T)
    kT = CGS.k_B * T
    if kT == 0.0:
        raise ValueError(f"T = {T!r} underflows kT = k_B*T to 0")
    return kT
