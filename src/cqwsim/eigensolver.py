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
(n pi, (n + 1) pi): on that hard-wall bracket, clipped to the window,
``bisect_root`` solves for the level by safeguarded Newton on the phase
and stops at float accuracy, with no tolerance.

The solver works on one well only, the scale-free (V, 0, B, 1) with
V = (v1 - v2) d^2 and B = b d^2: its levels are the well's, in units of
1/d^2 and measured from the floor. ``solve_bound_states``,
``count_levels`` and ``design_alignment`` map a well in, and ``_map_out``
maps each level back: energy / d^2 + v2, wavenumbers over d, amplitudes
over sqrt(d). So ``DESIGN_TOL`` is in units of the energy scale 1/d^2,
and no number of the physical frame enters the solver.
"""

from __future__ import annotations

import cmath
from math import (
    atan2, ceil, cos, exp, expm1, factorial, floor, inf, isfinite, pi, sin, sqrt,
)
from collections import namedtuple
from collections.abc import Callable
from sys import float_info

from .errors import DomainError, InfeasibleDesignError, NumericError

DESIGN_TOL = 1e-9
_TINY = float_info.min  # the smallest normal float


class WellParams(namedtuple("WellParams", "v1 v2 b d period")):
    """Geometry and potentials of one well period.

    v1 is the unbiased barrier height and v2 the well floor. The bias b is
    dropped across one period, so the right barrier sits at v1 - b. d is
    the well width, and period the center-to-center distance to the next
    well: only the coupled-pair operations need it, and it must exceed d
    when set.

    Fields: v1, v2, b, d (float); period (float or None).
    """

    __slots__ = ()

    def __new__(
        cls, v1: float, v2: float, b: float, d: float, period: float | None = None
    ) -> "WellParams":
        if not (d > 0):
            raise DomainError(f"well width must be positive, got d={d}")
        if b < 0:
            raise DomainError(f"bias must be nonnegative, got b={b}")
        if not (v2 < v1 - b):
            raise DomainError(
                "empty bound-state window: need v2 < v1 - b, got "
                f"v2={v2}, v1-b={v1 - b}"
            )
        well = super().__new__(cls, v1, v2, b, d, period)
        # the solver sees only the scale-free well (V, 0, B, 1) and the spacing
        # period / d; V and d^2 below the normal range would lose digits
        depth, scaled = _scale_free(well)
        if not (_TINY <= depth < inf and _TINY <= d * d and isfinite(scaled)
                and (period is None or isfinite(period / d))):
            raise DomainError(
                "well beyond float range: need normal (v1 - v2) d^2 and d^2, finite "
                f"b d^2 and period / d, got v1={v1}, v2={v2}, b={b}, d={d}, period={period}"
            )
        if period is not None and not (period > d):
            raise DomainError(
                f"period must exceed the well width, got period={period}, d={d}"
            )
        return well

    @classmethod
    def _make(cls, iterable) -> "WellParams":
        # _replace builds through _make: route it through the checks
        return cls(*iterable)


class PiecewiseWave(namedtuple(
    "PiecewiseWave", "nu amp_left kappa amp_cos amp_sin delta amp_right width"
)):
    """Matched piecewise wavefunction coefficients for one bound state.

    Left barrier: amp_left * exp(nu * x) for x < 0.
    Well: amp_cos * cos(kappa x) + amp_sin * sin(kappa x) on [0, width].
    Right barrier: amp_right * exp(-delta * (x - width)) for x > width.

    Fields: nu, amp_left, kappa, amp_cos, amp_sin, delta, amp_right, width
    (float).
    """

    __slots__ = ()


class BoundState(namedtuple("BoundState", "index energy wave")):
    """One bound level: branch index, energy, and unit-normalized wave.

    Fields: index (int); energy (float); wave (PiecewiseWave).
    """

    __slots__ = ()


class DesignResult(namedtuple("DesignResult", "bias levels residual")):
    """Outcome of the alignment search: bias, the two levels, residual E1 - E0 - bias.

    Fields: bias (float); levels (two BoundStates); residual (float).
    """

    __slots__ = ()


def _phase_of(depth: float, bias: float, n: int) -> Callable[[float], tuple[float, float]]:
    """Phase residual kappa - arctan(nu/kappa) - arctan(delta/kappa) - n pi of level n
    of the well (V, 0, B, 1), and its slope (1 + 1/nu + 1/delta) / (2 kappa).

    atan2 keeps the phase defined at the floor (kappa = 0), where it equals
    -pi; the slope is infinite there and at the window top (delta = 0).
    The well's numbers are bound once: a record's fields read slower than
    locals.
    """
    top, shift = depth - bias, n * pi

    def phase(energy: float) -> tuple[float, float]:
        kappa, nu, delta = sqrt(energy), sqrt(depth - energy), sqrt(top - energy)
        value = kappa - atan2(nu, kappa) - atan2(delta, kappa) - shift
        return value, (1.0 + 1.0 / nu + 1.0 / delta) / (2.0 * kappa) if kappa and delta else inf

    return phase


def bisect_root(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float
) -> float:
    """Root of f on the bracket [lo, hi] by safeguarded Newton, to float accuracy.

    f(x) returns (value, slope). The ends must differ in sign, or one be a
    root, else NumericError. From the midpoint on, each step keeps the half
    of the bracket that still changes sign and moves to the Newton iterate
    x - value / slope, or to the midpoint when that iterate leaves the
    bracket. It stops where f is 0, where the Newton iterate repeats the
    point it came from, or when the bracket is two adjacent floats, and
    returns the last point evaluated.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a)[0], f(b)[0]
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0) == (fb < 0):
        raise NumericError(
            f"no sign change on bracket [{a}, {b}]: f(a)={fa}, f(b)={fb}"
        )
    last, x = b, 0.5 * (a + b)
    while a < x < b:
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (fa < 0):
            a = x
        else:
            b = x
        step = x - fx / slope if slope else a  # a flat slope takes the midpoint
        if step == x:
            return x
        last, x = x, step if a < step < b else 0.5 * (a + b)
    return last


def _level_energy(depth: float, bias: float, n: int) -> float:
    """Energy of level n of (V, 0, B, 1), solved on n pi < kappa < (n + 1) pi in the window."""
    # products, not ** 2: libm's pow is not always correctly rounded
    edge, next_edge = n * pi, (n + 1) * pi
    hi = min(next_edge * next_edge, depth - bias)
    return bisect_root(_phase_of(depth, bias, n), edge * edge, hi)


def _scale_free(params: WellParams) -> tuple[float, float]:
    """(V, B) = ((v1 - v2) d^2, b d^2): the well (V, 0, B, 1) has the levels of ``params``."""
    scale = params.d * params.d
    return (params.v1 - params.v2) * scale, params.b * scale


def _map_out(state: BoundState, d: float, v2: float) -> BoundState:
    """A level of the scale-free well as the level of the well of width d and floor v2."""
    scale, root = d * d, sqrt(d)
    w = state.wave
    wave = PiecewiseWave(
        w.nu / d, w.amp_left / root, w.kappa / d, w.amp_cos / root, w.amp_sin / root,
        w.delta / d, w.amp_right / root, d,
    )
    return BoundState(state.index, state.energy / scale + v2, wave)


def solve_bound_states(params: WellParams) -> list[BoundState]:
    """All bound levels of the well, ordered by branch index.

    Each energy is a root of the phase condition of the scale-free well,
    solved to float accuracy.

    Returns
    -------
    list of BoundState
        Possibly empty; state ``index`` equals the interior node count.

    Notes
    -----
    Newton on the phase uses its slope (1 + 1/nu + 1/delta) / (2 kappa),
    at least 1 / (2 kappa), and stops at a zero residual, a repeated
    iterate or two adjacent floats. So a scale-free level E is off by at
    most ulp(E) + 2^-53 (21 E + 18 kappa) from the exact level of
    (V, 0, B, 1): the phase's rounding over its slope (``tests/oracles.py``
    derives the bound, and a 40-digit reference checks it). The returned
    level adds the rounding of energy / d^2 + v2.
    """
    states = _lowest_states(*_scale_free(params), count_levels(params))
    return [_map_out(state, params.d, params.v2) for state in states]


def _lowest_states(depth: float, bias: float, count: int) -> list[BoundState]:
    """The ``count`` lowest levels of (V, 0, B, 1); the caller checks that they exist."""
    states = []
    for n in range(count):
        energy = _level_energy(depth, bias, n)
        states.append(BoundState(index=n, energy=energy, wave=_match_wave(depth, bias, energy)))
    return states


def count_levels(params: WellParams) -> int:
    """Number of bound levels: the multiples n pi (n >= 0) below the phase at the window top."""
    depth, bias = _scale_free(params)
    return max(ceil(_phase_of(depth, bias, 0)(depth - bias)[0] / pi), 0)


def _match_wave(depth: float, bias: float, energy: float) -> PiecewiseWave:
    """Continuity-matched, unit-normalized piecewise coefficients on (V, 0, B, 1)."""
    kappa = sqrt(energy)
    nu = sqrt(depth - energy)
    delta = sqrt(depth - bias - energy)
    phi = atan2(kappa, nu)
    a_edge = sin(phi)
    f_edge = sin(kappa + phi)
    well_part = 0.5 - (sin(2 * (kappa + phi)) - sin(2 * phi)) / (4 * kappa)
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
        width=1.0,
    )


def wave_nodes(wave: PiecewiseWave) -> int:
    """Interior nodes of a bound state, counted in closed form.

    The well part is proportional to sin(kappa x + phi) with
    phi = atan2(amp_cos, amp_sin), and the barrier tails never vanish, so
    the nodes are the multiples m pi strictly inside
    (phi, kappa width + phi).
    """
    phi = atan2(wave.amp_cos, wave.amp_sin)
    return ceil((wave.kappa * wave.width + phi) / pi) - floor(phi / pi) - 1


# Taylor coefficients, highest power first, of int_0^1 e^(w s) ds and
# int_0^1 s e^(w s) ds: 1 / (k + 1)! and 1 / (k! (k + 2)). Eighteen terms
# leave a truncation below 1e-17 for |w| < 1.
_PHI_SERIES = tuple(1.0 / factorial(k + 1) for k in reversed(range(18)))
_PSI_SERIES = tuple(1.0 / (factorial(k) * (k + 2)) for k in reversed(range(18)))


def _unit_moments(w):
    """(int_0^1 e^(w s) ds, int_0^1 s e^(w s) ds) for Re w <= 0."""
    if abs(w) < 1.0:
        phi = psi = 0.0
        for c in _PHI_SERIES:
            phi = phi * w + c
        for c in _PSI_SERIES:
            psi = psi * w + c
        return phi, psi
    if isinstance(w, complex):
        e = cmath.exp(w)
        em1 = e - 1.0
    else:
        e, em1 = exp(w), expm1(w)
    return em1 / w, (w * e - em1) / (w * w)


def _segment(z, a: float, b: float, r: float, moment: int):
    """int_a^b x^moment e^(z (x - r)) dx.

    r is the end, a or b, where |e^(z (x - r))| is largest: 1 there.
    """
    if a == -inf:
        whole = 1.0 / z
        return whole if moment == 0 else whole * (b - whole)
    if b == inf:
        whole = -1.0 / z
        return whole if moment == 0 else whole * (a + whole)
    length = b - a
    phi, psi = _unit_moments(z * length if r == a else -z * length)
    if moment == 0:
        return length * phi
    return length * (r * phi + (psi if r == a else -psi) * length)


def _terms(wave: PiecewiseWave, offset: float, x: float) -> tuple:
    """The region of ``wave`` holding x as terms (c, z, x0) of c e^(z (x - x0))."""
    if x < offset:
        return ((wave.amp_left, wave.nu, offset),)
    right = offset + wave.width
    if x > right:
        return ((wave.amp_right, -wave.delta, right),)
    # amp_cos cos(t) + amp_sin sin(t) = p e^(i t) + conj(p) e^(-i t)
    p = 0.5 * complex(wave.amp_cos, -wave.amp_sin)
    return ((p, 1j * wave.kappa, offset), (p.conjugate(), -1j * wave.kappa, offset))


def product_integral(
    f: PiecewiseWave,
    f_offset: float,
    g: PiecewiseWave,
    g_offset: float,
    lo: float = -inf,
    hi: float = inf,
    moment: int = 0,
) -> float:
    """Exact int_lo^hi f(x - f_offset) g(x - g_offset) x^moment dx.

    Each wave has its well's left edge at its offset; ``moment`` is 0 or 1
    and either end may be infinite. The interval is cut at the four region
    edges. On each piece a wave is one exponential (a barrier tail) or two
    complex ones (cos and sin in the well), so the integrand is a sum of
    terms c e^(z (x - r)), each integrated in closed form.

    Every term is referred to the end r of its piece where |e^(z (x - r))|
    is largest, so no factor exceeds the waves' own amplitudes: tails that
    underflow across a wide barrier give 0, never inf * 0. What is left
    are int_0^1 e^(w s) ds and int_0^1 s e^(w s) ds with w = +-z L over a
    piece of length L and Re w <= 0. For |w| < 1 they are Taylor series,
    which stay exact at the z -> 0 limit: the barrier product
    e^(-delta_a (x - d)) e^(nu_b (x - period)) of an aligned pair.
    """
    if moment not in (0, 1):
        raise DomainError(f"moment must be 0 or 1, got {moment}")
    if not (lo <= hi):
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    inner = (f_offset, f_offset + f.width, g_offset, g_offset + g.width)
    edges = [lo, *sorted(e for e in inner if lo < e < hi), hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if a == b:
            continue
        # a point inside the piece: past 2^53 a step of 1 alone would round away
        mid = b - 1.0 - abs(b) if a == -inf else a + 1.0 + abs(a) if b == inf else 0.5 * (a + b)
        for c1, z1, x1 in _terms(f, f_offset, mid):
            for c2, z2, x2 in _terms(g, g_offset, mid):
                z = z1 + z2
                r = b if z.real > 0 else a
                u = z1 * (r - x1) + z2 * (r - x2)
                scale = c1 * c2 * (cmath.exp(u) if isinstance(u, complex) else exp(u))
                total += scale * _segment(z, a, b, r, moment)
    return total.real


def evaluate_wave(state: BoundState, x, offset: float = 0.0) -> np.ndarray:
    """Evaluate the piecewise wavefunction, well left edge at ``offset``."""
    import numpy as np

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


def design_alignment(v1: float, v2: float, d: float) -> DesignResult:
    """Search the bias b at which the level spacing equals the bias itself.

    The well (v1, v2, b, d) has the levels of (V, 0, b d^2, 1), with the
    scale-free depth V = (v1 - v2) d^2, divided by d^2 and raised by v2. So
    the search runs on (V, 0, b, 1), solving each bias's levels once and
    mapping out the two at its root, whether a design exists depends on V
    alone (from 24.95 to 64.08 on a scan of V in steps of 0.01), and
    ``DESIGN_TOL`` is in units of the energy scale 1/d^2. At d = 1 and
    v2 = 0 the map is the identity.

    By Hellmann-Feynman dE_n/db = -P_n, where P_n = amp_right^2 / (2 delta)
    < 1 is the weight of level n in the right barrier, the only part of the
    potential b moves. So h(b) = (E1 - E0) - b has slope P0 - P1 - 1 < 0,
    and each level nears the window top V - b at rate 1 - P_n > 0: h
    strictly decreases wherever two or more levels are bound, and the level
    count, the ceiling of the top phase over pi, never rises with b. The top
    phase sqrt(V - b) - arctan(sqrt(b / (V - b))) decreases in b, and its
    root against pi is b2, where the second level leaves the window: E1 =
    V - b2 and P1 = 1 there, so b2 holds one bound level. So h has at
    most one root, it lies on [1e-6, b2) iff h(b2) < 0, and bracketed Newton
    finds it to float accuracy. The root must hold exactly two levels, and
    |h| <= DESIGN_TOL there.

    Returns
    -------
    DesignResult
        bias b*, the two bound levels at b*, and the residual E1 - E0 - b*.

    Raises
    ------
    InfeasibleDesignError
        If no bias holds two levels, h(b2) >= 0, or the root holds three or
        more levels. The message names the scale-free well by V and each
        bias by B = b d^2, in units of 1/d^2, so every well of one V gives
        the same message.
    """
    depth, _ = _scale_free(WellParams(v1, v2, 0.0, d))  # DomainError outside the domain
    lo_b, hi_b = 1e-6, depth - 1e-6
    if hi_b <= lo_b:
        raise InfeasibleDesignError(f"bias range B in ({lo_b}, V) is empty for V={depth}")

    def top_phase(bias: float) -> tuple[float, float]:
        kappa = sqrt(depth - bias)
        value = kappa - atan2(sqrt(bias), kappa) - pi
        return value, -(1.0 + 1.0 / sqrt(bias)) / (2.0 * kappa) if kappa else -inf

    solved = {}  # bias -> its lowest levels: h(b2) and the root read them back

    def spacing_residual(bias: float) -> tuple[float, float]:
        if bias not in solved:
            solved[bias] = _lowest_states(depth, bias, 2 if bias < b2 else 1)
        # each level's energy E_n and right-barrier weight P_n; at b2 level 1
        # is the window top, E1 = V - b2 with P1 = 1
        levels = [
            (s.energy, s.wave.amp_right * s.wave.amp_right / (2.0 * s.wave.delta))
            for s in solved[bias]
        ]
        (e0, p0), (e1, p1) = levels if bias < b2 else [*levels, (depth - bias, 1.0)]
        return e1 - e0 - bias, p0 - p1 - 1.0

    if top_phase(lo_b)[0] <= 0:
        raise InfeasibleDesignError(
            f"no bias B in ({lo_b}, {hi_b}) yields two bound levels for V={depth}: "
            f"the second level is unbound already at B={lo_b}"
        )
    b2 = bisect_root(top_phase, lo_b, depth)
    h2 = spacing_residual(b2)[0]
    if h2 >= 0:
        raise InfeasibleDesignError(
            f"level spacing exceeds the bias wherever two levels are bound for V={depth}: "
            f"(E1 - E0) - B = {h2} at B2={b2}, where the second level leaves the window"
        )
    root = bisect_root(spacing_residual, lo_b, b2)
    count = count_levels(WellParams(depth, 0.0, root, 1.0))
    if count != 2:
        raise InfeasibleDesignError(
            f"alignment root holds {count} bound levels, not two, for V={depth}: B={root}"
        )
    states = solved[root]
    residual = (states[1].energy - states[0].energy) - root
    if abs(residual) > DESIGN_TOL:
        raise NumericError(
            f"alignment residual {residual} exceeds tolerance {DESIGN_TOL} for V={depth}: "
            f"B={root}"
        )
    bias = root / (d * d)
    levels = (_map_out(states[0], d, v2), _map_out(states[1], d, v2))
    return DesignResult(bias, levels, (levels[1].energy - levels[0].energy) - bias)
