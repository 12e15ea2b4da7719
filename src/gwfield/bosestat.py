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

``maximize_entropy`` performs that maximization numerically, and
``geometric_occupancy`` evaluates the closed form that certifies its optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS, require_positive, thermal_energy

MAX_BRUTE_FORCE_PHOTONS = 8
# ceiling on the occupation cutoff of a geometric_occupancy row, and (plus one) on the
# entries of a maximize_entropy table: one float row of 1,000,001 entries is 8 MB
MAX_R_MAX = 1_000_000
# relative energy mismatch maximize_entropy accepts at its solution
ENERGY_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Raised when the entropy maximizer fails."""


@dataclass(frozen=True)
class FrequencyBand:
    """A band with its per-volume state count and the box volume."""

    nu: float
    d_nu: float
    volume: float = 1.0

    def __post_init__(self) -> None:
        for name in ("nu", "d_nu", "volume"):
            require_positive(name, getattr(self, name))
        try:
            m = self.n_states
        except OverflowError:  # nu**2
            m = math.inf
        # a subnormal count has already lost digits to underflow
        if not np.finfo(float).smallest_normal <= m < math.inf:
            raise ValueError(f"nu = {self.nu!r}, d_nu = {self.d_nu!r} and volume = {self.volume!r} give the state "
                             f"count M = 8 pi nu^2 d_nu volume / c^3 = {m!r}, not a finite normal float > 0")

    @property
    def n_states(self) -> float:
        """Total states in the band, M = A * V with A = 8 pi nu^2 d_nu / c^3
        (continuous, Stirling regime)."""
        return 8.0 * math.pi * self.nu**2 * self.d_nu / CGS.c**3 * self.volume


def _whole_cutoff(r_max, least: int) -> int:
    """``r_max`` as an int; ValueError unless it is whole in [least, MAX_R_MAX]."""
    if not (least <= r_max <= MAX_R_MAX and r_max == int(r_max)):
        raise ValueError(f"r_max must be a whole number in [{least}, MAX_R_MAX = {MAX_R_MAX}], got {r_max!r}")
    return int(r_max)


def geometric_occupancy(band: FrequencyBand, T: float, r_max: int) -> np.ndarray:
    """Closed-form occupancies p_r = M (1 - x) x^r, x = exp(-h nu / kT), for
    r = 0..r_max: they sum to M (1 - x^(r_max+1)).

    Raises ValueError for a ``T`` whose kT underflows to 0 (:func:`constants.thermal_energy`),
    an ``r_max`` that is not a whole number in [0, :data:`MAX_R_MAX`], or when h nu / kT is
    so small that x rounds to 1 and every entry would be 0.
    """
    kT = thermal_energy(T)
    r_max = _whole_cutoff(r_max, 0)
    x = math.exp(-CGS.h * band.nu / kT)
    if x == 1.0:
        raise ValueError(f"T = {T!r} rounds exp(-h nu / kT) to 1 at nu = {band.nu!r}: every occupancy would be 0")
    return band.n_states * (1.0 - x) * x ** np.arange(r_max + 1)


@dataclass(frozen=True)
class OccupancyTable:
    """Per-band occupation counts p[s, r], r = 0..r_max, kept as a read-only copy."""

    bands: tuple[FrequencyBand, ...]
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != len(self.bands):
            raise ValueError("p must be a (n_bands, r_max+1) array")
        if not np.isfinite(p).all():  # a NaN passes every comparison below
            raise ValueError("occupancies must be finite")
        if np.any(p < -1e-30):
            raise ValueError("occupancies must be >= 0")
        for s, band in enumerate(self.bands):
            total = float(p[s].sum())
            if abs(total - band.n_states) > 1e-8 * band.n_states:
                raise ValueError(f"band {s} occupancies sum to {total}, expected {band.n_states}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def photon_numbers(self) -> np.ndarray:
        return self.p @ np.arange(self.p.shape[1])

    def total_energy(self) -> float:
        return float(sum(CGS.h * band.nu * n for band, n in zip(self.bands, self.photon_numbers())))

    def ln_multiplicity(self) -> float:
        total = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for band, p in zip(self.bands, self.p):
                m = band.n_states
                total += m * math.log(m) - float(np.sum(np.where(p == 0.0, 0.0, p * np.log(p))))
        return total


@dataclass(frozen=True)
class ThermoState:
    """Solution summary: energy multiplier beta (= kT at the optimum) and how many
    trial multipliers (bracketing plus Brent) the solver evaluated.  The totals
    (energy, entropy S = k ln W, photon number) are the table's to derive."""

    beta: float
    energy_evaluations: int

    def __post_init__(self) -> None:
        require_positive("beta", self.beta)

    @property
    def temperature(self) -> float:
        return self.beta / CGS.k_B


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket [a, b] by Brent's method.

    A step-for-step port of scipy's C ``brentq`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), so roots and function
    calls match it exactly: inverse-quadratic or secant steps where they shrink
    fast enough, else bisection, until half the bracket is below
    delta = (xtol + rtol |x|) / 2.  Raises ValueError when f(a) and
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
                denom = dblk * dpre * (fblk - fpre)
                # C divides an underflowed denominator into inf or NaN, which fails the test below
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
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


@np.errstate(divide="ignore")
def _band_optimum(n_states, h_nu, beta: float, r_max: int) -> np.ndarray:
    """Maximize -sum p ln p - (h nu / beta) sum r p on the simplex sum p = M.

    Entropic mirror ascent with step 0.5, in place on the (n_bands, r_max+1) rows of
    the 1-D ``n_states`` and ``h_nu``: each step halves the distance of ln p from the
    optimum, and rows converge in 51-58 steps.  A converged row is frozen, so each is
    the row its band alone would give; the running rows are gathered only on a step
    where some converge.
    Raises :class:`ConvergenceError` if 200 iterations do not converge every row.
    """
    m = n_states[:, None]
    drift = 0.5 * (1.0 + h_nu[:, None] / beta * np.arange(r_max + 1.0))
    floor = np.maximum(1e-300 * m, np.finfo(float).tiny)  # a floor that underflows to 0 divides 0 by 0
    p = np.repeat(m / (r_max + 1.0), r_max + 1, axis=1)
    out, q, step = np.empty((3, *p.shape))
    rows = np.arange(len(h_nu))
    for _ in range(200):
        np.log(p, out=q)
        q *= 0.5
        q -= drift
        q -= q.max(axis=1, keepdims=True)
        np.exp(q, out=q)
        total = q.sum(axis=1, keepdims=True)
        q *= m
        q /= total
        np.abs(np.subtract(q, p, out=step), out=step)
        step /= np.maximum(q, floor, out=p)
        p, q = q, p
        done = step.max(axis=1) < 1e-15
        if done.any():
            out[rows[done]] = p[done]
            if done.all():
                return out
            p, q, step, m, drift, floor, rows = (a[~done] for a in (p, q, step, m, drift, floor, rows))
    more = f" and {len(rows) - 5} more" if len(rows) > 5 else ""
    raise ConvergenceError(f"mirror ascent did not converge in 200 iterations for band rows {rows[:5].tolist()}"
                           f"{more} (h nu = {h_nu[rows[:5]].tolist()}, beta = {beta})")


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
    ``e_target``, an ``r_max`` not whole in [1, MAX_R_MAX] or over ``MAX_R_MAX + 1``
    table entries, and :class:`ConvergenceError` when the bracket fails or
    ``r_max`` cannot hold the target energy.
    """
    if not bands:
        raise ValueError("at least one band is required")
    require_positive("e_target", e_target)
    r_max = _whole_cutoff(r_max, 1)
    if len(bands) * (r_max + 1) > MAX_R_MAX + 1:
        raise ValueError(f"{len(bands)} x {r_max + 1} table entries is above MAX_R_MAX + 1 = {MAX_R_MAX + 1}")

    n_states = np.array([b.n_states for b in bands])
    h_nu = np.array([CGS.h * b.nu for b in bands])
    e_ceiling = sum(h_nu * n_states * r_max / 2.0)
    if e_target >= 0.98 * e_ceiling:
        raise ConvergenceError(f"e_target = {e_target} is not representable below r_max = {r_max} "
                               f"(uniform-occupancy ceiling {e_ceiling})")

    r = np.arange(r_max + 1.0)
    evaluations = 0
    mismatches = {}  # Brent reopens on the bracket ends

    def energy_mismatch(beta: float) -> float:
        nonlocal evaluations
        evaluations += 1
        if beta not in mismatches:
            rows = _band_optimum(n_states, h_nu, beta, r_max)
            mismatches[beta] = sum(CGS.h * b.nu * float(row @ r) for b, row in zip(bands, rows)) - e_target
        return mismatches[beta]

    hi = float(h_nu.max())
    lo = hi * 1e-6
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
        raise ConvergenceError(f"energy matched to {abs(energy - e_target) / e_target:.3e} relative, "
                               f"worse than ENERGY_TOL = {ENERGY_TOL}")
    return table, ThermoState(beta=beta, energy_evaluations=evaluations)


def planck_density(nu, T: float):
    """Spectral energy density (8 pi nu^2 / c^3) h nu / (exp(h nu/kT) - 1),
    in erg/(cm^3 Hz).  A ``T`` whose kT underflows to 0 is refused by name
    (:func:`constants.thermal_energy`)."""
    nu = np.asarray(nu, dtype=float)
    kT = thermal_energy(T)
    for value in nu[~(np.isfinite(nu) & (nu > 0.0))].flat[:1]:  # raises on the first refused entry
        require_positive("nu", float(value))
    x = CGS.h * nu / kT
    with np.errstate(over="ignore"):  # expm1(x) = inf where the density underflows to 0
        out = (8.0 * math.pi * nu**2 / CGS.c**3) * CGS.h * nu / np.expm1(x)
    return float(out) if out.ndim == 0 else out


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
