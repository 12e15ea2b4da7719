"""Photon state counting and entropy maximization.

A frequency band [nu, nu + d_nu) in a box of volume V holds
A*V = (8 pi nu^2 d_nu / c^3) * V single-photon states (both helicities).
A macrostate assigns p_r of those states to hold exactly r photons; its
log-multiplicity in the Stirling regime is

    ln W = sum_s [ M_s ln M_s - sum_r p_r^s ln p_r^s ],   M_s = A^s V,

and maximizing ln W at fixed total energy E = sum_s h nu^s sum_r r p_r^s
(photon number is NOT constrained) yields the geometric occupancies
p_r = M (1 - x) x^r with x = exp(-h nu / beta), which reduce to the Planck
spectral density once beta is identified with kT.

``maximize_entropy`` performs that maximization numerically (entropic mirror
ascent on each band's simplex, scalar root-find on the energy multiplier);
``geometric_occupancy`` evaluates the closed form, which serves as an
independent certificate of the optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS

MAX_BRUTE_FORCE_PHOTONS = 8
# ceiling on the occupation cutoff suggested_r_max may ask for: one float row
# of 1,000,001 entries is 8 MB
MAX_R_MAX = 1_000_000
# geometric tail mass suggested_r_max cuts off, relative to the band total
R_MAX_TAIL = 1e-12
# relative energy mismatch maximize_entropy accepts at its solution
ENERGY_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Raised when the entropy maximizer fails."""


def band_state_count(nu: float, d_nu: float) -> float:
    """States per unit volume in [nu, nu + d_nu): 8 pi nu^2 d_nu / c^3."""
    if not (nu > 0.0 and d_nu > 0.0):
        raise ValueError("nu and d_nu must be positive")
    return 8.0 * math.pi * nu**2 * d_nu / CGS.c**3


@dataclass(frozen=True)
class FrequencyBand:
    """A band with its per-volume state count and the box volume."""

    nu: float
    d_nu: float
    volume: float = 1.0

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and self.d_nu > 0.0 and self.volume > 0.0):
            raise ValueError("nu, d_nu and volume must all be positive")

    @property
    def n_states(self) -> float:
        """Total states in the band, M = A * V (continuous, Stirling regime)."""
        return band_state_count(self.nu, self.d_nu) * self.volume


def suggested_r_max(band: FrequencyBand, T: float) -> int:
    """Smallest occupation cutoff whose geometric tail is below :data:`R_MAX_TAIL`.

    Raises ValueError when that cutoff would exceed :data:`MAX_R_MAX`.
    """
    x = math.exp(-CGS.h * band.nu / (CGS.k_B * T))
    if x == 0.0:
        return 1
    if x == 1.0:
        raise ValueError(
            f"h nu / kT = {CGS.h * band.nu / (CGS.k_B * T):.3e} rounds exp(-h nu / kT) to 1: "
            f"the geometric tail never falls below {R_MAX_TAIL}"
        )
    r = max(int(math.ceil(math.log(R_MAX_TAIL) / math.log(x))), 1)
    if r > MAX_R_MAX:
        raise ValueError(
            f"h nu / kT = {CGS.h * band.nu / (CGS.k_B * T):.3e} needs r_max = {r} for a tail "
            f"below {R_MAX_TAIL}, above the ceiling MAX_R_MAX = {MAX_R_MAX}"
        )
    return r


def geometric_occupancy(band: FrequencyBand, T: float, r_max: int | None = None) -> np.ndarray:
    """Closed-form occupancies p_r = M (1 - x) x^r, x = exp(-h nu / kT).

    ``r_max`` is raised automatically until the truncated tail is below
    :data:`R_MAX_TAIL` of the total, so sum_r p_r = M to that accuracy.
    """
    if T <= 0.0:
        raise ValueError("temperature must be positive")
    needed = suggested_r_max(band, T)
    if r_max is None or r_max < needed:
        r_max = needed
    x = math.exp(-CGS.h * band.nu / (CGS.k_B * T))
    r = np.arange(r_max + 1)
    return band.n_states * (1.0 - x) * x**r


@dataclass(frozen=True)
class OccupancyTable:
    """Per-band occupation counts p[s, r], r = 0..r_max."""

    bands: tuple[FrequencyBand, ...]
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != len(self.bands):
            raise ValueError("p must be a (n_bands, r_max+1) array")
        if np.any(p < -1e-30):
            raise ValueError("occupancies must be >= 0")
        for s, band in enumerate(self.bands):
            total = float(p[s].sum())
            if abs(total - band.n_states) > 1e-8 * band.n_states:
                raise ValueError(
                    f"band {s} occupancies sum to {total}, expected {band.n_states}"
                )
        object.__setattr__(self, "p", p)

    def photon_numbers(self) -> np.ndarray:
        r = np.arange(self.p.shape[1])
        return self.p @ r

    def total_energy(self) -> float:
        per_band = self.photon_numbers()
        return float(sum(CGS.h * band.nu * n for band, n in zip(self.bands, per_band)))

    def ln_multiplicity(self) -> float:
        total = 0.0
        for s, band in enumerate(self.bands):
            m = band.n_states
            p = self.p[s]
            with np.errstate(divide="ignore", invalid="ignore"):
                p_ln_p = np.where(p == 0.0, 0.0, p * np.log(p))
            total += m * math.log(m) - float(np.sum(p_ln_p))
        return total


@dataclass(frozen=True)
class ThermoState:
    """Solution summary: energy multiplier beta (= kT at the optimum),
    total energy, entropy S = k ln W, total photon number, and how many
    trial multipliers (bracketing plus Brent) the solver evaluated."""

    beta: float
    E: float
    S_entropy: float
    N_photons: float
    energy_evaluations: int = 0

    def __post_init__(self) -> None:
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive at a solution")

    @property
    def temperature(self) -> float:
        return self.beta / CGS.k_B


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket [a, b] by Brent's method.

    A step-for-step port of scipy's C ``brentq`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), so roots and function
    calls match it exactly: an inverse-quadratic or secant step where it
    shrinks fast enough, bisection otherwise, stopping once half the bracket
    is below delta = (xtol + rtol |x|) / 2.  Raises ValueError when f(a) and
    f(b) share a sign or ``f`` returns NaN, RuntimeError after ``maxiter``
    iterations.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; Brent's method cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations, value is {xcur}")


def _band_optimum(n_states, h_nu, beta: float, r_max: int) -> np.ndarray:
    """Maximize -sum p ln p - (h nu / beta) sum r p on the simplex sum p = M.

    Entropic mirror ascent with step 0.5: each iteration halves the distance
    of ln p from the fixed point, so ~60 iterations reach rounding level.
    The 1-D arrays ``n_states`` and ``h_nu`` give one row per band,
    (n_bands, r_max+1), all advanced together.  A row is frozen once it
    converges, so each is the row its band alone would give.
    Raises :class:`ConvergenceError` if 200 iterations do not converge every row.
    """
    n_states = n_states[:, None]
    gamma = h_nu[:, None] / beta
    r = np.arange(r_max + 1, dtype=float)
    p = np.repeat(n_states / (r_max + 1.0), r_max + 1, axis=1)
    active = np.ones(len(h_nu), dtype=bool)
    eta = 0.5
    for _ in range(200):
        p_act, m = p[active], n_states[active]
        with np.errstate(divide="ignore"):
            log_p = np.log(p_act)
        update = (1.0 - eta) * log_p - eta * (1.0 + gamma[active] * r)
        update -= update.max(axis=1, keepdims=True)
        q = np.exp(update)
        p_new = m * q / q.sum(axis=1, keepdims=True)
        done = np.max(np.abs(p_new - p_act) / np.maximum(p_new, 1e-300 * m), axis=1) < 1e-15
        p[active] = p_new
        active[active] = ~done
        if not active.any():
            return p
    stuck = np.flatnonzero(active)
    more = f" and {len(stuck) - 5} more" if len(stuck) > 5 else ""
    raise ConvergenceError(
        f"mirror ascent did not converge in 200 iterations for band rows "
        f"{stuck[:5].tolist()}{more} (h nu = {h_nu[stuck[:5]].tolist()}, beta = {beta})"
    )


def maximize_entropy(
    bands: list[FrequencyBand], e_target: float, r_max: int
) -> tuple[OccupancyTable, ThermoState]:
    """Numerically maximize ln W at fixed total energy.

    The KKT system is separable: at a trial energy multiplier beta each band's
    optimum is found by mirror ascent on its own simplex (one vectorised call
    for all bands), and beta is then root-found (Brent) so the optimal table
    hits ``e_target`` to :data:`ENERGY_TOL` relative.
    ``ThermoState.energy_evaluations`` counts the trial multipliers,
    bracketing plus Brent.  Raises ValueError for no band, a non-positive
    ``e_target`` or ``r_max < 1``, and :class:`ConvergenceError` when the
    bracket fails or ``r_max`` cannot hold the target energy.
    """
    if not bands:
        raise ValueError("at least one band is required")
    if not (e_target > 0.0 and math.isfinite(e_target)):
        raise ValueError("e_target must be finite and positive")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")

    e_ceiling = sum(CGS.h * b.nu * b.n_states * r_max / 2.0 for b in bands)
    if e_target >= 0.98 * e_ceiling:
        raise ConvergenceError(
            f"e_target = {e_target} is not representable below r_max = {r_max} "
            f"(uniform-occupancy ceiling {e_ceiling})"
        )

    n_states = np.array([b.n_states for b in bands])
    h_nu = np.array([CGS.h * b.nu for b in bands])
    evaluations = 0

    def energy_mismatch(beta: float) -> float:
        nonlocal evaluations
        evaluations += 1
        rows = _band_optimum(n_states, h_nu, beta, r_max)
        r = np.arange(r_max + 1, dtype=float)
        energy = sum(CGS.h * b.nu * float(row @ r) for b, row in zip(bands, rows))
        return energy - e_target

    beta_scale = max(CGS.h * b.nu for b in bands)
    lo, hi = beta_scale * 1e-6, beta_scale
    for _ in range(200):
        if energy_mismatch(lo) < 0.0:
            break
        lo *= 0.25
    else:
        raise ConvergenceError("failed to bracket beta from below")
    for _ in range(200):
        if energy_mismatch(hi) > 0.0:
            break
        hi *= 4.0
    else:
        raise ConvergenceError("failed to bracket beta from above")
    beta = _brentq(energy_mismatch, lo, hi, xtol=1e-300, rtol=8.9e-16)
    table = OccupancyTable(bands=tuple(bands), p=_band_optimum(n_states, h_nu, beta, r_max))
    energy = table.total_energy()
    if abs(energy - e_target) > ENERGY_TOL * e_target:
        raise ConvergenceError(
            f"energy matched to {abs(energy - e_target) / e_target:.3e} relative, "
            f"worse than ENERGY_TOL = {ENERGY_TOL}"
        )
    thermo = ThermoState(
        beta=beta,
        E=energy,
        S_entropy=CGS.k_B * table.ln_multiplicity(),
        N_photons=float(table.photon_numbers().sum()),
        energy_evaluations=evaluations,
    )
    return table, thermo


def planck_density(nu, T: float):
    """Spectral energy density (8 pi nu^2 / c^3) h nu / (exp(h nu/kT) - 1),
    in erg/(cm^3 Hz)."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0.0) or T <= 0.0:
        raise ValueError("nu and T must be positive")
    x = CGS.h * nu / (CGS.k_B * T)
    with np.errstate(over="ignore"):  # expm1(x) = inf where the density underflows to 0
        out = (8.0 * math.pi * nu**2 / CGS.c**3) * CGS.h * nu / np.expm1(x)
    return float(out) if out.ndim == 0 else out


def planck_peak_x() -> float:
    """Dimensionless peak location x* = h nu*/kT, the root of 3(1 - e^-x) = x."""
    return _brentq(lambda x: 3.0 * (1.0 - math.exp(-x)) - x, 1.0, 5.0, xtol=2e-12, rtol=1e-14)


def spontaneous_equilibrium_check(
    nu: float,
    T: float,
    g_ratio: float,
    photon_scale: float = 1.0,
    include_spontaneous: bool = True,
) -> float:
    """Residual of the two-level equilibrium condition
    |n2 (N + A) h nu / (n1 N h nu) - g2/g1|.

    N = A/(exp(x) - 1) is the thermal photon count (x = h nu/kT) and
    n2/n1 = (g2/g1) exp(-x) is the Boltzmann population ratio; with those the
    residual vanishes identically.  ``photon_scale`` perturbs N and
    ``include_spontaneous`` drops the +A term, both of which break the
    identity.  The stable evaluation e^-x - expm1(-x)/scale avoids overflow
    for large x.
    """
    if nu <= 0.0 or T <= 0.0 or g_ratio <= 0.0 or photon_scale <= 0.0:
        raise ValueError("nu, T, g_ratio and photon_scale must be positive")
    x = CGS.h * nu / (CGS.k_B * T)
    term = math.exp(-x)
    if include_spontaneous:
        term -= math.expm1(-x) / photon_scale
    return g_ratio * abs(term - 1.0)


def symmetrize_photons(modes, occupation):
    """Build the permutation-symmetric N-point evaluator.

    ``modes`` is a sequence of single-particle mode functions and
    ``occupation[i]`` how many photons occupy mode i.  The evaluator returns

        (1/sqrt(W)) * sum over distinct arrangements of prod_j mode_(j)(x_j)

    with W the number of distinct arrangements N!/prod(n_i!); for orthonormal
    modes the result is normalized.  Limited to N <= 8 (brute-force scale).
    """
    occupation = [int(n) for n in occupation]
    if len(occupation) != len(modes):
        raise ValueError("occupation must give one count per mode")
    if any(n < 0 for n in occupation):
        raise ValueError("occupations must be >= 0")
    n_total = sum(occupation)
    if n_total == 0:
        raise ValueError("at least one photon is required")
    if n_total > MAX_BRUTE_FORCE_PHOTONS:
        raise ValueError(f"N = {n_total} photons is beyond brute-force scale")
    labels = tuple(i for i, count in enumerate(occupation) for _ in range(count))
    # distinct arrangements in lexicographic order; N <= 8 bounds this at 8! tuples
    arrangements = sorted(set(itertools.permutations(labels)))
    weight = 1.0 / math.sqrt(len(arrangements))

    def evaluator(points):
        points = np.asarray(points)
        if points.shape[0] != n_total:
            raise ValueError(f"expected {n_total} particle coordinates")
        total = None
        for arrangement in arrangements:
            product = None
            for j, label in enumerate(arrangement):
                value = np.asarray(modes[label](points[j]), dtype=np.complex128)
                product = value if product is None else product * value
            total = product if total is None else total + product
        return weight * total

    return evaluator
