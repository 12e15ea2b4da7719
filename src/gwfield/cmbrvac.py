"""Thermal vacuum-energy phenomenology in CGS units.

The zero-photon states of a Planck distribution carry the energy density

    rho_vac = int_0^omega_c  (8 pi omega^2 / ((2 pi)^3 c^3)) hbar omega
              * (1 - exp(-hbar omega / kT)) d omega
            ~ hbar^2 omega_c^5 / (5 pi^2 c^3 kT)    for hbar omega_c << kT,

which this module evaluates both exactly, in closed form, and with the
small-cutoff asymptotic form.  Derived quantities: a magnetic-moment shift
a = xi * rho_vac * (V/B) / mu_B, the mode-counting comparison value
hbar omega_c^4 / (8 pi^2 c^3), and the plate pressure obtained from
rho_vac(omega_c = pi c / a).

Two prefactor conventions for the moment are shipped side by side.  The
"symbolic" variant evaluates hbar^2/(5 pi^2 c^3 kT) from the constant table
(about 2.24e-72 at 2.7 K).  The "paper-numeric" variant uses the fixed
reference prefactor 5.5e-71 erg s^5 / cm^3 over 9.274e-21 erg/G; the two
disagree by a factor of about 25 and neither is silently corrected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS, require_positive, thermal_energy

# Reference values used by the "paper-numeric" moment variant and the
# comparison tests; kept as named constants, never inlined.
QUOTED_VACUUM_PREFACTOR = 5.5e-71  # erg s^5 / cm^3, multiplies omega_c^5
QUOTED_BOHR_MAGNETON = 9.274e-21  # erg/G
OBSERVED_VACUUM_BOUND = 1e-6  # erg/cm^3, observational upper bound

MOMENT_VARIANTS = ("symbolic", "paper-numeric")

# int_0^x t^3 (1 - e^-t) dt / x^5 as a power series: (-1)^(n+1) / (n! (n+4)), n = 29, ..., 1
_SERIES = tuple((-1) ** (n + 1) / (math.factorial(n) * (n + 4)) for n in range(29, 0, -1))


@dataclass(frozen=True)
class VacuumModel:
    """Thermal vacuum model: temperature, cutoff frequency, transfer
    efficiency xi in (0, 1], and the volume-to-field ratio V/B [cm^3/G]."""

    omega_c: float
    T: float = 2.7
    xi: float = 1.0
    V_over_B: float = 1.0

    def __post_init__(self) -> None:
        for name in ("T", "omega_c", "V_over_B"):
            require_positive(name, getattr(self, name))
        if not (0.0 < self.xi <= 1.0):
            raise ValueError("xi must lie in (0, 1]")


def vacuum_energy(model: VacuumModel, method: str = "exact") -> float:
    """Vacuum energy density [erg/cm^3].

    ``exact`` evaluates the zero-photon integral in closed form; ``asymptotic``
    the small-cutoff form.  Since 1 - exp(-x) <= x the exact value never
    exceeds the asymptotic one, and for hbar omega_c / kT <= 0.01 they agree
    within 0.5%.  A ``T`` whose kT underflows to 0 is refused by name
    (:func:`constants.thermal_energy`); a non-finite hbar omega_c / kT raises OverflowError.
    """
    kT = thermal_energy(model.T)
    if method == "asymptotic":
        # hbar^2 / (5 pi^2 c^3 kT), the omega_c^5 coefficient [erg s^5 / cm^3]; k_B and T
        # multiply in turn, not as kT, since the grouping sets the result's last bit
        return CGS.hbar**2 / (5.0 * math.pi**2 * CGS.c**3 * CGS.k_B * model.T) * model.omega_c**5
    if method != "exact":
        raise ValueError("method must be 'exact' or 'asymptotic'")
    x = CGS.hbar * model.omega_c / kT
    if not math.isfinite(x):
        raise OverflowError(f"hbar omega_c / kT overflows at omega_c = {model.omega_c}, T = {model.T}")
    # rho = (kT)^4 / (hbar^3 pi^2 c^3) * I(x) = hbar omega_c^4 / (pi^2 c^3) * I(x) / x^4: the
    # second form has no (kT)^4, which underflows at low T while rho is still a normal float
    prefactor = CGS.hbar * model.omega_c * (model.omega_c / CGS.c) ** 3 / math.pi**2
    if x < 2.0:  # the closed form below cancels here: sum the series, smallest term first
        return prefactor * (float(np.polyval(_SERIES, x)) * x)
    # I(x) = int_0^x t^3 (1 - e^-t) dt = x^4/4 - 6 + e^-x (x^3 + 3x^2 + 6x + 6), over x^4 in powers of 1/x
    y = 1.0 / x
    return prefactor * (0.25 - 6.0 * y**4 + math.exp(-x) * y * (1.0 + y * (3.0 + y * (6.0 + 6.0 * y))))


def anomalous_moment(model: VacuumModel, variant: str = "symbolic") -> float:
    """Magnetic-moment shift a = xi * rho_vac * (V/B) / mu_B.

    ``symbolic`` uses the asymptotic rho_vac from the constant table;
    ``paper-numeric`` the quoted prefactor pair (see module docstring).
    """
    if variant == "symbolic":
        rho = vacuum_energy(model, method="asymptotic")
        return model.xi * rho * model.V_over_B / CGS.mu_B
    if variant == "paper-numeric":
        rho = QUOTED_VACUUM_PREFACTOR * model.omega_c**5
        return model.xi * rho * model.V_over_B / QUOTED_BOHR_MAGNETON
    raise ValueError(f"variant must be one of {MOMENT_VARIANTS}")


def cutoff_for_moment(a_target: float) -> float:
    """Invert the paper-numeric :func:`anomalous_moment` at the default model
    for the cutoff frequency [rad/s]: the moment grows as omega_c^5."""
    require_positive("a_target", a_target)
    return (a_target / anomalous_moment(VacuumModel(omega_c=1.0), "paper-numeric")) ** 0.2


def qed_vacuum_energy(omega_c: float) -> float:
    """Half-quantum-per-mode counting: hbar omega_c^4 / (8 pi^2 c^3) [erg/cm^3]."""
    require_positive("omega_c", omega_c)
    return CGS.hbar * omega_c**4 / (8.0 * math.pi**2 * CGS.c**3)


def casimir_coefficient(T: float = 2.7) -> float:
    """hbar^2 pi^3 c^2 / kT, the 1/a^6 pressure coefficient [dyne cm^4].  A ``T``
    whose kT underflows to 0 is refused by name (:func:`constants.thermal_energy`)."""
    return CGS.hbar**2 * math.pi**3 * CGS.c**2 / thermal_energy(T)


def casimir_pressure(a: float, T: float = 2.7) -> float:
    """Plate pressure P = -(hbar^2 pi^3 c^2 / kT) / a^6 [dyne/cm^2].

    This is d rho_vac/d a with the asymptotic rho_vac evaluated at the box
    cutoff omega_c = pi c / a; the negative sign means attraction.  An ``a``
    whose a^6 underflows to 0, or an ``(a, T)`` whose pressure is not a finite
    float, is refused by name.  An ``a`` whose a^6 overflows gives the -0.0 that
    the pressure underflows to.
    """
    require_positive("a", a)
    try:
        a6 = a**6
    except OverflowError:
        a6 = math.inf
    if a6 == 0.0:
        raise ValueError(f"a = {a!r} underflows a^6 to 0")
    pressure = -casimir_coefficient(T) / a6
    if not math.isfinite(pressure):
        raise ValueError(f"a = {a!r}, T = {T!r} give no finite pressure -(hbar^2 pi^3 c^2 / kT) / a^6")
    return pressure

