"""Splitting, dipoles, and branching for an aligned pair of wells.

When the bias equals the level spacing, the ground level of one well is
degenerate with the excited level of its right neighbor. Tunneling through
the shared barrier splits the degenerate pair into sublevels H (upper) and
L (lower) described by a two-state generalized eigenproblem in the
nonorthogonal basis {left-well ground, right-well excited}.

Every integral is exact, from ``eigensolver.product_integral``, and no
grid is sampled. Put the left well (potential V_a) on [0, d] and its
neighbor (V_b) on [period, period + d], with bias b. The pair's potential
V_pair differs from each well's own on two regions only: V_pair - V_a is
v2 - v1 on the right well and -b beyond it, and V_pair - V_b is b left of
0 and v2 - v1 + b on the left well. So each coupling element is a sum
over those regions of a constant times an overlap. The dipoles are the
moment-1 products of the translated states on a three-well chain.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import hypot, inf, sqrt
from operator import add

from .cascade import BranchingModel, _stochastic_row
from .eigensolver import (
    BoundState,
    WellParams,
    _scale_free,
    design_alignment,
    evaluate_wave,
    product_integral,
)
from .errors import DomainError, NumericError, ValidationError

OVERLAP_LIMIT = 0.99
TUNNELING_DOMINANCE = 100.0


class CoupledLevels(namedtuple(
    "CoupledLevels", "e_plus e_minus delta_e a_plus b_plus a_minus b_minus overlap"
)):
    """Sublevel energies and mixing coefficients of an aligned pair.

    The sublevel states are a_pm * (left-well ground) + b_pm * (right-well
    excited); overall signs are fixed by a_pm > 0. ``overlap`` is the basis
    overlap S, and the coefficients satisfy a^2 + b^2 + 2 a b S = 1.

    Fields: e_plus, e_minus, delta_e, a_plus, b_plus, a_minus, b_minus,
    overlap (float).
    """

    __slots__ = ()


class CouplingIntegrals(namedtuple("CouplingIntegrals", "overlap k_ba k_ab d_aa d_bb")):
    """Overlap and potential matrix elements of the aligned pair.

    With a the left ground state and b the right excited state:
    overlap = <a|b>, k_ba = <b|V_pair - V_a|a>, k_ab = <a|V_pair - V_b|b>,
    d_aa = <a|V_pair - V_a|a> and d_bb = <b|V_pair - V_b|b>.

    Fields: overlap, k_ba, k_ab, d_aa, d_bb (float).
    """

    __slots__ = ()


class ModeFrequencies(namedtuple("ModeFrequencies", "omega_minus omega_zero omega_plus")):
    """Emission frequencies of the three cavity modes.

    Fields: omega_minus, omega_zero, omega_plus (float).
    """

    __slots__ = ()


class DipoleIntegrals(namedtuple("DipoleIntegrals", "intra adjacent_gg far adjacent_ee")):
    """Position matrix elements between the underlying well states.

    intra couples ground and excited of the shared middle well; the other
    three are cross-well elements suppressed by barrier decay.

    Fields: intra, adjacent_gg, far, adjacent_ee (float).
    """

    __slots__ = ()


class DipoleMatrix(namedtuple("DipoleMatrix", "d_hh d_hl d_lh d_ll d_hg d_lg")):
    """Dipole elements for the four sublevel transitions plus terminal ones.

    First letter is the source sublevel, second the target; ``d_hg`` and
    ``d_lg`` couple the last pair to the unsplit final ground level.

    Fields: d_hh, d_hl, d_lh, d_ll, d_hg, d_lg (float).
    """

    __slots__ = ()


class SolvedChain(namedtuple("SolvedChain", "bias left split freqs dipoles")):
    """The aligned chain of the scale-free well (V, 0, B, 1): the well's two lowest
    levels and the doublet that its ground level forms with the right neighbor's
    excited one. The level spacing is ``freqs.omega_zero``.

    Fields: bias (float); left (two BoundStates); split (CoupledLevels);
    freqs (ModeFrequencies); dipoles (DipoleMatrix).
    """

    __slots__ = ()


def split_pair(
    h_aa: float, h_bb: float, h_ab: float, overlap: float, residual: float = 0.0
) -> CoupledLevels:
    """Solve the two-state generalized eigenproblem H c = E M c.

    M is [[1, S], [S, 1]] with S = ``overlap``; eigenvectors come back
    M-orthonormal with a_pm > 0. Raises NumericError when |S| exceeds
    0.99 (near-singular metric) or the splitting vanishes.

    The problem is solved in closed form in the symmetrically orthogonalized
    basis (a +- b) / sqrt(2 (1 +- S)), where M is the identity and H reads
    centre + [[d, o], [o, -d]]. The half-splitting is hypot(d, o), which
    stays accurate when the splitting is tiny against the energies.

    ``residual`` is the part of h_aa - h_bb that is alignment error, not
    physics; ``couple_wells`` passes E_a - (E_b - b). It adds r = residual /
    (2 sqrt(1 - S^2)) to the detuning term o, and the tunneling term must
    dominate it: NumericError when |d| < TUNNELING_DOMINANCE (100) |r|,
    since the splitting would then report the residual. This is the pair's
    one alignment check. hypot is 1-Lipschitz, so an accepted residual moves
    the splitting by at most 2 |r| <= 2 |d| / 100: 1% of the tunneling
    splitting 2 |d|, and so of the splitting, which is at least that. Where
    r is all of o (wide barriers, whose diagonal shifts vanish) the
    splitting is within hypot(1, 0.01) - 1 = 5e-5 of 2 |d|.
    """
    if abs(overlap) > OVERLAP_LIMIT:
        raise NumericError(
            f"overlap metric near singular: |S|={abs(overlap)} > {OVERLAP_LIMIT}"
        )
    plus, minus = 1.0 + overlap, 1.0 - overlap
    det = plus * minus
    mean = 0.5 * (h_aa + h_bb)
    centre = (mean - overlap * h_ab) / det
    d = (h_ab - overlap * mean) / det
    o = 0.5 * (h_aa - h_bb) / sqrt(det)
    half = hypot(d, o)
    delta = 2.0 * half
    if not (delta > 0):
        raise NumericError(f"level splitting collapsed: delta_e={delta}")
    detuning = 0.5 * abs(residual) / sqrt(det)
    if abs(d) < TUNNELING_DOMINANCE * detuning:
        raise NumericError(
            f"tunneling no longer dominates the detuning: tunneling term {abs(d)} is "
            f"below {TUNNELING_DOMINANCE:g} times the alignment detuning {detuning}"
        )

    def coefficients(shift: float) -> tuple[float, float]:
        # Null vector of the larger-norm row of [[d, o], [o, -d]] - shift,
        # mapped back to (a, b) and signed so that a > 0. With h_aa == h_bb
        # (o == 0) it is exactly one basis vector.
        r0, r1 = max(((d - shift, o), (o, -d - shift)), key=lambda r: hypot(*r))
        norm = hypot(r0, r1)
        u, v = r1 / norm / sqrt(2.0 * plus), -r0 / norm / sqrt(2.0 * minus)
        a, b = u + v, u - v
        return (-a, -b) if a < 0 else (a, b)

    a_plus, b_plus = coefficients(half)
    a_minus, b_minus = coefficients(-half)
    return CoupledLevels(
        e_plus=centre + half,
        e_minus=centre - half,
        delta_e=delta,
        a_plus=a_plus,
        b_plus=b_plus,
        a_minus=a_minus,
        b_minus=b_minus,
        overlap=float(overlap),
    )


def _spacing(period: float | None) -> float:
    """The well-to-well spacing, which coupling needs."""
    if period is None:
        raise ValidationError("well.period is required to couple wells")
    return period


def coupling_integrals(
    ground: BoundState, excited: BoundState, params: WellParams
) -> CouplingIntegrals:
    """Exact coupling elements: ``ground`` at 0, ``excited`` at the period."""
    fa, fb = ground.wave, excited.wave
    d, period, b = params.d, _spacing(params.period), params.b
    drop = params.v2 - params.v1
    edges = (-inf, 0.0, d, period, period + d, inf)
    cross = [
        product_integral(fa, 0.0, fb, period, lo, hi)
        for lo, hi in zip(edges, edges[1:])
    ]
    return CouplingIntegrals(
        overlap=reduce(add, cross),
        k_ba=drop * cross[3] - b * cross[4],
        k_ab=b * cross[0] + (drop + b) * cross[1],
        d_aa=drop * product_integral(fa, 0.0, fa, 0.0, period, period + d)
        - b * product_integral(fa, 0.0, fa, 0.0, period + d, inf),
        d_bb=b * product_integral(fb, period, fb, period, -inf, 0.0)
        + (drop + b) * product_integral(fb, period, fb, period, 0.0, d),
    )


def couple_wells(
    ground: BoundState, excited: BoundState, params: WellParams
) -> CoupledLevels:
    """Split a well's ground level and its right neighbor's excited level by tunneling.

    ``ground`` and ``excited`` are the well's own two lowest levels, as for
    ``coupling_integrals`` and ``dipole_matrix``. The right neighbor is the
    well moved by one period with every potential lowered by the bias, so
    its excited level is the same wave at E_b - b, the shift applied here.
    The overlap and coupling elements come from ``coupling_integrals``, and
    ``split_pair`` refuses a pair whose tunneling does not dominate the
    detuning E_a - (E_b - b). For a designed bias that detuning is one
    rounding away from the design residual E_b - E_a - b.
    """
    e_a = ground.energy
    e_b = excited.energy - params.b
    ints = coupling_integrals(ground, excited, params)
    s = ints.overlap
    h_ab = 0.5 * ((e_b * s + ints.k_ab) + (e_a * s + ints.k_ba))
    return split_pair(
        e_a + ints.d_aa, e_b + ints.d_bb, h_ab, s, residual=e_a - e_b
    )


def mode_frequencies(delta_e: float, splitting: float) -> ModeFrequencies:
    """Frequencies (spacing - splitting, spacing, spacing + splitting).

    ``delta_e`` is the inter-well level spacing feeding the central mode;
    ``splitting`` is the sublevel splitting. Requires 0 < splitting <
    delta_e so all three frequencies stay positive and ordered.
    """
    if not (splitting > 0):
        raise DomainError(f"splitting must be positive, got {splitting}")
    if not (splitting < delta_e):
        raise DomainError(
            f"splitting {splitting} must stay below the level spacing {delta_e}"
        )
    return ModeFrequencies(
        omega_minus=delta_e - splitting,
        omega_zero=delta_e,
        omega_plus=delta_e + splitting,
    )


# The tests' sampled-grid references: no command uses them, and the package
# namespace leaves them out. They stay because bench/tracing.py TARGETS wraps
# simpson and sample_chain_waves; move them to tests/oracles.py with it.
def simpson(y, x) -> float:
    """``scipy.integrate.simpson(y, x=x)``; scipy, which comes only with the
    ``test`` extra, is imported on the first call."""
    from scipy.integrate import simpson as scipy_simpson

    return float(scipy_simpson(y, x=x))


class ChainWaves(namedtuple(
    "ChainWaves", "x ground_0 excited_1 ground_1 excited_2 ground excited"
)):
    """Wavefunction samples spanning three consecutive wells.

    ground_0 is the first well's ground state, excited_1 and ground_1 the
    middle well's states, excited_2 the third well's excited state, all on
    the shared grid ``x``.

    Fields: x, ground_0, excited_1, ground_1, excited_2 (numpy arrays);
    ground, excited (BoundState).
    """

    __slots__ = ()


def sample_chain_waves(
    ground: BoundState,
    excited: BoundState,
    params: WellParams,
    n_points: int = 10_000,
) -> ChainWaves:
    """Sample the translated states on three wells plus 8 decay lengths a side."""
    import numpy as np

    nu = min(ground.wave.nu, excited.wave.nu)
    delta = min(ground.wave.delta, excited.wave.delta)
    period = params.period
    x = np.linspace(-8.0 / nu, 2 * period + params.d + 8.0 / delta, n_points)
    return ChainWaves(
        x=x,
        ground_0=evaluate_wave(ground, x, 0.0),
        excited_1=evaluate_wave(excited, x, period),
        ground_1=evaluate_wave(ground, x, period),
        excited_2=evaluate_wave(excited, x, 2 * period),
        ground=ground,
        excited=excited,
    )


def dipole_integrals(
    ground: BoundState, excited: BoundState, period: float
) -> DipoleIntegrals:
    """Exact position matrix elements on a chain of wells at 0, period, 2 period.

    ``ground`` and ``excited`` are one well's states; the shift identity
    makes them every well's states, translated.
    """
    g, e = ground.wave, excited.wave
    return DipoleIntegrals(
        intra=product_integral(g, period, e, period, moment=1),
        adjacent_gg=product_integral(g, period, g, 0.0, moment=1),
        far=product_integral(e, 2 * period, g, 0.0, moment=1),
        adjacent_ee=product_integral(e, 2 * period, e, period, moment=1),
    )


def assemble_dipoles(levels: CoupledLevels, integrals: DipoleIntegrals) -> DipoleMatrix:
    """Combine mixing coefficients with the underlying matrix elements.

    By the shift identity every pair of the chain splits into the same
    ``levels``, so source and target sublevels share its coefficients. The
    dominant contribution to each transition is the shared middle well's
    intra-well element scaled by a_target * b_source, which fixes the sign
    pattern: both H-source entries share b_plus's sign, both L-source
    entries share b_minus's.
    """
    coeff = {"h": (levels.a_plus, levels.b_plus),
             "l": (levels.a_minus, levels.b_minus)}

    def element(src: str, tgt: str) -> float:
        a_x, b_x = coeff[src]
        a_y, b_y = coeff[tgt]
        return (
            a_y * a_x * integrals.adjacent_gg
            + a_y * b_x * integrals.intra
            + b_y * a_x * integrals.far
            + b_y * b_x * integrals.adjacent_ee
        )

    def terminal(src: str) -> float:
        a_x, b_x = coeff[src]
        return a_x * integrals.adjacent_gg + b_x * integrals.intra

    return DipoleMatrix(
        d_hh=element("h", "h"),
        d_hl=element("h", "l"),
        d_lh=element("l", "h"),
        d_ll=element("l", "l"),
        d_hg=terminal("h"),
        d_lg=terminal("l"),
    )


def dipole_matrix(
    levels: CoupledLevels, ground: BoundState, excited: BoundState, period: float
) -> DipoleMatrix:
    """Dipole elements between consecutive sublevel pairs."""
    return assemble_dipoles(levels, dipole_integrals(ground, excited, period))


def solve_chain(v1: float, v2: float, d: float, period: float) -> SolvedChain:
    """Solve the chain of wells (v1, v2, d) spaced ``period`` apart, on its scale-free well.

    The chain is that of (V, 0, B, 1) with V = (v1 - v2) d^2, spaced
    period / d apart, and so is every field of the result: energies, bias,
    splitting and frequencies are in units of 1/d^2 above the floor v2,
    and dipoles in units of d. The mixing, the overlap and both branching
    weightings do not scale: the rows of ``branching_model`` are those of
    the well itself. The bias B is the one the design search on (V, 0, 1)
    finds, which refuses a well it cannot align, and the design's two
    levels are the chain's; ``couple_wells`` lowers the excited one by the
    bias. Without a period it refuses as ``couple_wells`` does, before any
    level is solved.
    """
    # WellParams raises DomainError outside the domain of the well and its scale-free twin
    depth, _ = _scale_free(WellParams(v1, v2, 0.0, d, _spacing(period)))
    b, left, _ = design_alignment(depth, 0.0, 1.0)
    params = WellParams(depth, 0.0, b, 1.0, period / d)
    split = couple_wells(left[0], left[1], params)
    freqs = mode_frequencies(left[1].energy - left[0].energy, split.delta_e)
    dipoles = dipole_matrix(split, left[0], left[1], params.period)
    return SolvedChain(b, left, split, freqs, dipoles)


def branching_model(
    freqs: ModeFrequencies, dipoles: DipoleMatrix, weighting: str
) -> BranchingModel:
    """Transition probabilities from emission rates.

    ``weighting`` selects the rate rule: "physical" uses omega^3 * d^2,
    "dipole-only" uses d^2 alone. Each row is normalized exactly; an
    all-zero row is a numeric error. The row factor of either rule, d^-4
    or d^2, cancels in the normalization, so the rows of a chain are those
    of its scale-free well, where omega_plus < 2 (4 pi^2) keeps omega^3
    below 5e5.
    """
    if weighting == "physical":
        def rate(omega: float, dip: float) -> float:
            return omega**3 * dip * dip
    elif weighting == "dipole-only":
        def rate(omega: float, dip: float) -> float:
            return dip * dip
    else:
        raise ValidationError(
            f"unknown weighting {weighting!r}: expected 'physical' or 'dipole-only'"
        )
    p_hh, p_hl = _stochastic_row(
        rate(freqs.omega_zero, dipoles.d_hh), rate(freqs.omega_plus, dipoles.d_hl)
    )
    p_ll, p_lh = _stochastic_row(
        rate(freqs.omega_zero, dipoles.d_ll), rate(freqs.omega_minus, dipoles.d_lh)
    )
    return BranchingModel(p_hh, p_hl, p_lh, p_ll, weighting=weighting)
