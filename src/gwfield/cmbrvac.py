"""Thermal vacuum-energy phenomenology in CGS units.

The zero-photon states of a Planck distribution carry the energy density

    rho_vac = int_0^omega_c  (8 pi omega^2 / ((2 pi)^3 c^3)) hbar omega
              * (1 - exp(-hbar omega / kT)) d omega
            ~ hbar^2 omega_c^5 / (5 pi^2 c^3 kT)    for hbar omega_c << kT,

which this module evaluates both by adaptive quadrature and with the
asymptotic closed form.  Derived quantities: a magnetic-moment shift
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
from scipy.integrate import quad

from .constants import CGS
from .fields import ComplexField
from .madelung import polar_decompose, quantum_potential
from .wavemech import EffectiveMassParams
from . import spectral

# Reference values used by the "paper-numeric" moment variant and the
# comparison tests; kept as named constants, never inlined.
QUOTED_VACUUM_PREFACTOR = 5.5e-71  # erg s^5 / cm^3, multiplies omega_c^5
QUOTED_BOHR_MAGNETON = 9.274e-21  # erg/G
OBSERVED_VACUUM_BOUND = 1e-6  # erg/cm^3, observational upper bound

MOMENT_VARIANTS = ("symbolic", "paper-numeric")


@dataclass(frozen=True)
class VacuumModel:
    """Thermal vacuum model: temperature, cutoff frequency, transfer
    efficiency xi in (0, 1], and the volume-to-field ratio V/B [cm^3/G]."""

    omega_c: float
    T: float = 2.7
    xi: float = 1.0
    V_over_B: float = 1.0

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("T must be finite and positive")
        if not (self.omega_c > 0.0 and math.isfinite(self.omega_c)):
            raise ValueError("omega_c must be finite and positive")
        if not (0.0 < self.xi <= 1.0):
            raise ValueError("xi must lie in (0, 1]")
        if not (self.V_over_B > 0.0):
            raise ValueError("V_over_B must be positive")


def vacuum_asymptotic_prefactor(T: float) -> float:
    """hbar^2 / (5 pi^2 c^3 kT), the omega_c^5 coefficient [erg s^5 / cm^3]."""
    return CGS.hbar**2 / (5.0 * math.pi**2 * CGS.c**3 * CGS.k_B * T)


def vacuum_energy(model: VacuumModel, method: str = "exact") -> float:
    """Vacuum energy density [erg/cm^3].

    ``exact`` integrates the zero-photon spectral density by adaptive
    quadrature to 1e-10 relative; ``asymptotic`` evaluates the small-cutoff
    closed form.  Since 1 - exp(-x) <= x the exact value never exceeds the
    asymptotic one, and for hbar omega_c / kT <= 0.01 they agree within 0.5%.
    """
    if method == "asymptotic":
        return vacuum_asymptotic_prefactor(model.T) * model.omega_c**5
    if method != "exact":
        raise ValueError("method must be 'exact' or 'asymptotic'")
    x_max = CGS.hbar * model.omega_c / (CGS.k_B * model.T)
    scale = (CGS.k_B * model.T) ** 4 / (CGS.hbar**3 * math.pi**2 * CGS.c**3)
    value, abserr = quad(
        lambda x: x**3 * -math.expm1(-x), 0.0, x_max, epsabs=0.0, epsrel=1e-11, limit=200
    )
    if value > 0.0 and abserr > 1e-9 * value:
        raise RuntimeError(f"quadrature failed to converge: estimate {value}, error {abserr}")
    return scale * value


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


def cutoff_for_moment(
    a_target: float,
    T: float = 2.7,
    xi: float = 1.0,
    V_over_B: float = 1.0,
    variant: str = "symbolic",
) -> float:
    """Invert :func:`anomalous_moment` for the cutoff frequency [rad/s]."""
    if a_target <= 0.0:
        raise ValueError("a_target must be positive")
    if variant == "symbolic":
        prefactor = vacuum_asymptotic_prefactor(T) / CGS.mu_B
    elif variant == "paper-numeric":
        prefactor = QUOTED_VACUUM_PREFACTOR / QUOTED_BOHR_MAGNETON
    else:
        raise ValueError(f"variant must be one of {MOMENT_VARIANTS}")
    return (a_target / (xi * V_over_B * prefactor)) ** 0.2


def qed_vacuum_energy(omega_c: float) -> float:
    """Half-quantum-per-mode counting: hbar omega_c^4 / (8 pi^2 c^3) [erg/cm^3]."""
    if omega_c <= 0.0:
        raise ValueError("omega_c must be positive")
    return CGS.hbar * omega_c**4 / (8.0 * math.pi**2 * CGS.c**3)


def casimir_coefficient(T: float = 2.7) -> float:
    """hbar^2 pi^3 c^2 / kT, the 1/a^6 pressure coefficient [dyne cm^4]."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    return CGS.hbar**2 * math.pi**3 * CGS.c**2 / (CGS.k_B * T)


def casimir_pressure(a: float, T: float = 2.7) -> float:
    """Plate pressure P = -(hbar^2 pi^3 c^2 / kT) / a^6 [dyne/cm^2].

    This is d rho_vac/d a with the asymptotic rho_vac evaluated at the box
    cutoff omega_c = pi c / a; the negative sign means attraction.
    """
    if a <= 0.0:
        raise ValueError("plate separation must be positive")
    return -casimir_coefficient(T) / a**6


def magnetic_energy_identity_check(psi: ComplexField, params: EffectiveMassParams) -> float:
    """Relative residual of the gradient-energy split

        int |grad psi|^2 dV = (omega_ref / (hbar c^2)) int Q rho dV
                              + int |grad phase|^2 rho dV.

    The total-divergence term drops on the periodic box.  Points under the
    density floor are excluded from the right-hand side, so the check is
    meaningful for fields whose density stays above the floor.
    """
    grid = psi.grid
    spec_weights = np.abs(np.fft.fftn(psi.values)) ** 2
    n_total = float(np.prod(grid.n_points))
    lhs = float(np.sum(spectral.k_squared(grid) * spec_weights)) * grid.cell_volume / n_total

    form = polar_decompose(psi)
    qfield = quantum_potential(form, params.m_star)
    q_term = (
        params.omega_ref
        / (CGS.hbar * CGS.c**2)
        * float(np.sum(form.rho * qfield.Q))
        * grid.cell_volume
    )
    keep = ~form.branch_mask
    safe_rho = np.where(form.branch_mask, 1.0, form.rho)
    phase_term = 0.0
    for flux in spectral.phase_flux(psi.values, grid):
        phase_term += float(np.sum((flux**2 / safe_rho)[keep])) * grid.cell_volume
    return abs(lhs - (q_term + phase_term)) / abs(lhs)
