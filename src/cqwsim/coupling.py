"""Splitting, dipoles, and branching for an aligned pair of wells.

When the bias equals the level spacing, the ground level of one well is
degenerate with the excited level of its right neighbor. Tunneling through
the shared barrier splits the degenerate pair into sublevels H (upper) and
L (lower) described by a two-state generalized eigenproblem in the
nonorthogonal basis {left-well ground, right-well excited}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite, sqrt

import numpy as np

from .eigensolver import BoundState, WellParams, composite_grid, evaluate_wave, simpson
from .errors import DomainError, NumericError, ValidationError

ALIGNMENT_TOL = 1e-6
OVERLAP_LIMIT = 0.99


@dataclass(frozen=True)
class CoupledLevels:
    """Sublevel energies and mixing coefficients of an aligned pair.

    The sublevel states are a_pm * (left-well ground) + b_pm * (right-well
    excited); overall signs are fixed by a_pm > 0. ``overlap`` is the basis
    overlap S, and the coefficients satisfy a^2 + b^2 + 2 a b S = 1.
    """

    e_plus: float
    e_minus: float
    delta_e: float
    a_plus: float
    b_plus: float
    a_minus: float
    b_minus: float
    overlap: float


@dataclass(frozen=True)
class ModeFrequencies:
    """Emission frequencies of the three cavity modes."""

    omega_minus: float
    omega_zero: float
    omega_plus: float


@dataclass(frozen=True)
class DipoleIntegrals:
    """Position matrix elements between the underlying well states.

    intra couples ground and excited of the shared middle well; the other
    three are cross-well elements suppressed by barrier decay.
    """

    intra: float
    adjacent_gg: float
    far: float
    adjacent_ee: float


@dataclass(frozen=True)
class DipoleMatrix:
    """Dipole elements for the four sublevel transitions plus terminal ones.

    First letter is the source sublevel, second the target; ``d_hg`` and
    ``d_lg`` couple the last pair to the unsplit final ground level.
    """

    d_hh: float
    d_hl: float
    d_lh: float
    d_ll: float
    d_hg: float
    d_lg: float


@dataclass(frozen=True)
class BranchingModel:
    """Row-stochastic transition probabilities of the two-sublevel ladder.

    Rows are (p_hh, p_hl) for an H sublevel and (p_lh, p_ll) for an L
    sublevel. Terminal transitions are fixed: an H sublevel decays to the
    final ground emitting into the high-frequency accumulator, an L
    sublevel into the low-frequency one, each with probability 1.
    """

    p_hh: float
    p_hl: float
    p_lh: float
    p_ll: float
    weighting: str = "manual"

    def __post_init__(self) -> None:
        for name in ("p_hh", "p_hl", "p_lh", "p_ll"):
            p = getattr(self, name)
            if not isfinite(p) or p < 0.0 or p > 1.0:
                raise DomainError(f"{name}={p} is not a probability")
        if abs(self.p_hh + self.p_hl - 1.0) > 1e-9:
            raise DomainError(
                f"H row sums to {self.p_hh + self.p_hl}, expected 1 within 1e-9"
            )
        if abs(self.p_lh + self.p_ll - 1.0) > 1e-9:
            raise DomainError(
                f"L row sums to {self.p_lh + self.p_ll}, expected 1 within 1e-9"
            )

    @classmethod
    def symmetric(cls) -> "BranchingModel":
        """Equal 1/2 probabilities everywhere, bypassing any physics."""
        return cls(0.5, 0.5, 0.5, 0.5, weighting="symmetric")

    @classmethod
    def manual(
        cls, p_hh: float, p_hl: float, p_lh: float, p_ll: float
    ) -> "BranchingModel":
        """Explicit probabilities, renormalized to exact row sums.

        Raises ValidationError if an entry is not a probability or a row
        sum strays from 1 by more than 1e-9.
        """
        try:
            cls(p_hh, p_hl, p_lh, p_ll)
        except DomainError as exc:
            raise ValidationError(f"manual branching: {exc}") from None
        hh, hl = _stochastic_row(p_hh, p_hl)
        ll, lh = _stochastic_row(p_ll, p_lh)
        return cls(hh, hl, lh, ll, weighting="manual")


def _stochastic_row(stay: float, cross: float) -> tuple[float, float]:
    """Normalize nonnegative weights into an exactly summing pair.

    The entry at or above 1/2 keeps its directly divided value and the
    partner takes the complement, which is exact in floating point, so
    stay + cross == 1.0 holds exactly.
    """
    total = stay + cross
    if not isfinite(total) or total <= 0:
        raise NumericError(
            f"degenerate branching row: weights ({stay}, {cross}) sum to {total}"
        )
    q = cross / total
    if q >= 0.5:
        return 1.0 - q, q
    p = stay / total
    return p, 1.0 - p


def split_pair(
    h_aa: float, h_bb: float, h_ab: float, overlap: float
) -> CoupledLevels:
    """Solve the two-state generalized eigenproblem H c = E M c.

    M is [[1, S], [S, 1]] with S = ``overlap``; eigenvectors come back
    M-orthonormal with a_pm > 0. Raises NumericError when |S| exceeds
    0.99 (near-singular metric) or the splitting vanishes.

    The problem is solved in closed form in the symmetrically orthogonalized
    basis (a +- b) / sqrt(2 (1 +- S)), where M is the identity and H reads
    centre + [[d, o], [o, -d]]. The half-splitting is hypot(d, o), which
    stays accurate when the splitting is tiny against the energies.
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


def chain_potential(params: WellParams, x, n_wells: int) -> np.ndarray:
    """Composite potential of ``n_wells`` consecutive biased periods."""
    if n_wells > 1 and params.period is None:
        raise ValidationError("well.period is required for multi-well potentials")
    xs = np.asarray(x, dtype=float)
    period = params.period or 0.0
    out = np.full_like(xs, params.v1)
    for k in range(n_wells):
        x0 = k * period
        out[(xs >= x0) & (xs <= x0 + params.d)] = params.v2 - k * params.b
        upper = (
            xs > x0 + params.d
            if k == n_wells - 1
            else (xs > x0 + params.d) & (xs < (k + 1) * period)
        )
        out[upper] = params.v1 - (k + 1) * params.b
    return out


def well_potential(params: WellParams, x, well: int) -> np.ndarray:
    """Potential of the isolated ``well``-th period in the chain frame."""
    if well > 0 and params.period is None:
        raise ValidationError("well.period is required for shifted wells")
    xs = np.asarray(x, dtype=float)
    x0 = well * (params.period or 0.0)
    drop = well * params.b
    out = np.full_like(xs, params.v1 - drop)
    out[(xs >= x0) & (xs <= x0 + params.d)] = params.v2 - drop
    out[xs > x0 + params.d] = params.v1 - drop - params.b
    return out


def couple_wells(
    left: tuple[BoundState, BoundState],
    right: tuple[BoundState, BoundState],
    params: WellParams,
) -> CoupledLevels:
    """Split the aligned (left ground, right excited) pair by tunneling.

    ``left`` holds the bound states of one well, ``right`` those of its
    right neighbor solved with all potentials lowered by the bias, so both
    energy sets live in the same global frame. The alignment precondition
    |E_ground(left) - E_excited(right)| <= 1e-6 must hold.

    Coupling and overlap integrals are evaluated by composite Simpson
    quadrature of the sampled wavefunctions against the two-well composite
    potential.
    """
    if len(left) < 1 or len(right) < 2:
        raise DomainError(
            "couple_wells needs the left ground state and the right excited state"
        )
    if params.period is None:
        raise ValidationError("well.period is required to couple wells")
    ground = left[0]
    excited = right[1]
    e_a = ground.energy
    e_b = excited.energy
    if abs(e_a - e_b) > ALIGNMENT_TOL:
        raise DomainError(
            f"wells misaligned: left ground {e_a} vs right excited {e_b} "
            f"differ by {abs(e_a - e_b)}, tolerance {ALIGNMENT_TOL}"
        )
    x = composite_grid(params, [ground, excited], n_wells=2)
    fa = evaluate_wave(ground, x, 0.0)
    fb = evaluate_wave(excited, x, params.period)
    v_pair = chain_potential(params, x, 2)
    v_a = well_potential(params, x, 0)
    v_b = well_potential(params, x, 1)
    s = simpson(fa * fb, x)
    k_ba = simpson(fb * (v_pair - v_a) * fa, x)
    k_ab = simpson(fa * (v_pair - v_b) * fb, x)
    d_aa = simpson(fa * fa * (v_pair - v_a), x)
    d_bb = simpson(fb * fb * (v_pair - v_b), x)
    h_ab = 0.5 * ((e_b * s + k_ab) + (e_a * s + k_ba))
    return split_pair(e_a + d_aa, e_b + d_bb, h_ab, s)


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


@dataclass(frozen=True)
class ChainWaves:
    """Wavefunction samples spanning three consecutive wells.

    ground_0 is the first well's ground state, excited_1 and ground_1 the
    middle well's states, excited_2 the third well's excited state, all on
    the shared grid ``x``.
    """

    x: np.ndarray
    ground_0: np.ndarray
    excited_1: np.ndarray
    ground_1: np.ndarray
    excited_2: np.ndarray
    ground: BoundState
    excited: BoundState


def sample_chain_waves(
    ground: BoundState,
    excited: BoundState,
    params: WellParams,
    n_points: int = 10_000,
) -> ChainWaves:
    """Sample the translated well states on a three-well composite grid."""
    if params.period is None:
        raise ValidationError("well.period is required to sample a well chain")
    x = composite_grid(params, [ground, excited], n_wells=3, n_points=n_points)
    period = params.period
    return ChainWaves(
        x=x,
        ground_0=evaluate_wave(ground, x, 0.0),
        excited_1=evaluate_wave(excited, x, period),
        ground_1=evaluate_wave(ground, x, period),
        excited_2=evaluate_wave(excited, x, 2 * period),
        ground=ground,
        excited=excited,
    )


def dipole_integrals(waves: ChainWaves) -> DipoleIntegrals:
    """Quadrature of the four position matrix elements."""
    x = waves.x
    return DipoleIntegrals(
        intra=simpson(waves.ground_1 * x * waves.excited_1, x),
        adjacent_gg=simpson(waves.ground_1 * x * waves.ground_0, x),
        far=simpson(waves.excited_2 * x * waves.ground_0, x),
        adjacent_ee=simpson(waves.excited_2 * x * waves.excited_1, x),
    )


def assemble_dipoles(
    levels_src: CoupledLevels,
    levels_tgt: CoupledLevels,
    integrals: DipoleIntegrals,
) -> DipoleMatrix:
    """Combine mixing coefficients with the underlying matrix elements.

    The dominant contribution to each transition is the shared middle
    well's intra-well element scaled by a_target * b_source, which fixes
    the sign pattern: both H-source entries share b_plus's sign, both
    L-source entries share b_minus's.
    """
    coeff_src = {"h": (levels_src.a_plus, levels_src.b_plus),
                 "l": (levels_src.a_minus, levels_src.b_minus)}
    coeff_tgt = {"h": (levels_tgt.a_plus, levels_tgt.b_plus),
                 "l": (levels_tgt.a_minus, levels_tgt.b_minus)}

    def element(src: str, tgt: str) -> float:
        a_x, b_x = coeff_src[src]
        a_y, b_y = coeff_tgt[tgt]
        return (
            a_y * a_x * integrals.adjacent_gg
            + a_y * b_x * integrals.intra
            + b_y * a_x * integrals.far
            + b_y * b_x * integrals.adjacent_ee
        )

    def terminal(src: str) -> float:
        a_x, b_x = coeff_src[src]
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
    levels_src: CoupledLevels,
    levels_tgt: CoupledLevels,
    waves: ChainWaves,
    params: WellParams,
) -> DipoleMatrix:
    """Dipole elements between consecutive sublevel pairs.

    ``waves`` must cover the three-well span with at least five decay
    lengths of tail on each side; a mismatched grid is a configuration
    error.
    """
    if params.period is None:
        raise ValidationError("well.period is required for dipole integrals")
    x = waves.x
    for name in ("ground_0", "excited_1", "ground_1", "excited_2"):
        arr = getattr(waves, name)
        if arr.shape != x.shape:
            raise ValidationError(
                f"grid mismatch: waves.{name} has shape {arr.shape}, grid {x.shape}"
            )
    lo_needed = -5.0 / waves.ground.wave.nu
    hi_needed = 2 * params.period + params.d + 5.0 / waves.excited.wave.delta
    if x[0] > lo_needed or x[-1] < hi_needed:
        raise ValidationError(
            f"grid mismatch: need coverage [{lo_needed}, {hi_needed}], "
            f"got [{x[0]}, {x[-1]}]"
        )
    return assemble_dipoles(levels_src, levels_tgt, dipole_integrals(waves))


def branching_model(
    freqs: ModeFrequencies, dipoles: DipoleMatrix, weighting: str
) -> BranchingModel:
    """Transition probabilities from emission rates.

    ``weighting`` selects the rate rule: "physical" uses omega^3 * d^2,
    "dipole-only" uses d^2 alone. Each row is normalized exactly; an
    all-zero row is a numeric error.
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
