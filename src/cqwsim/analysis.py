"""Post-processing of the final photon-count distribution.

The support constraint |l - n| <= 1 makes every fixed-m slice at most
two-dimensional in (l, n), so conditioning on the central count either
pins the side counts completely or leaves a single two-level degree of
freedom shared between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log2, sqrt

import numpy as np

from .cascade import JointDistribution
from .errors import DomainError, NumericError


@dataclass(frozen=True)
class ConditionalState:
    """State of the (l, n) pair after conditioning on the central count.

    For s = n_total - measured_m remaining photons and k = s // 2, an even
    s gives the product state |k, k> and an odd s the superposition
    alpha |k, k+1> + beta |k+1, k>. ``weight`` is the probability of the
    slice; an empty slice carries kind "empty" and no coefficients.
    """

    measured_m: int
    s: int
    k: int
    kind: str
    alpha: float | None
    beta: float | None
    weight: float


@dataclass(frozen=True)
class ParityReport:
    """Per-triple check of the parity gate between m and (l, n)."""

    n_total: int
    gate: str
    rows: list[tuple[int, int, int, int, int, int, bool]]
    all_hold: bool


@dataclass(frozen=True)
class PurityReport:
    """Diagnostics of the rank-one density operator built from the table."""

    trace: float
    rank_one: bool
    idempotency_residual: float


@dataclass(frozen=True)
class LogicalProjection:
    """Mass of the (l-parity, n-parity) pairs within one m-parity sector."""

    n_total: int
    m_parity: int
    support: dict[tuple[int, int], float]
    allowed: frozenset[tuple[int, int]]
    confined: bool


def marginals(
    dist: JointDistribution,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginal probability vectors of l, m, and n, each of length n+1."""
    size = dist.n_total + 1
    p_l = np.zeros(size)
    p_m = np.zeros(size)
    p_n = np.zeros(size)
    for key in sorted(dist.table):
        l, m, n = key
        f = dist.table[key]
        p_l[l] += f
        p_m[m] += f
        p_n[n] += f
    return p_l, p_m, p_n


def joint_pm(dist: JointDistribution) -> dict[tuple[int, int], float]:
    """Joint probability of (l, n), summed over the central count.

    The support stays on the three diagonals n - l in {-1, 0, +1}.
    """
    out: dict[tuple[int, int], float] = {}
    for key in sorted(dist.table):
        l, _, n = key
        out[(l, n)] = out.get((l, n), 0.0) + dist.table[key]
    return out


def _slice_state(
    n_total: int, m: int, slice_f: dict[tuple[int, int], float]
) -> ConditionalState:
    """Classify one fixed-m slice given its positive (l, n) masses."""
    s = n_total - m
    k = s // 2
    weight = fsum(slice_f.values())
    if weight == 0.0:
        return ConditionalState(m, s, k, "empty", None, None, 0.0)
    if s % 2 == 0:
        if set(slice_f) != {(k, k)}:
            raise NumericError(
                f"even slice m={m} occupies {sorted(slice_f)}, expected {[(k, k)]}"
            )
        return ConditionalState(m, s, k, "product", None, None, weight)
    extras = set(slice_f) - {(k, k + 1), (k + 1, k)}
    if extras:
        raise NumericError(
            f"odd slice m={m} occupies unexpected keys {sorted(extras)}"
        )
    alpha = sqrt(slice_f.get((k, k + 1), 0.0) / weight)
    beta = sqrt(slice_f.get((k + 1, k), 0.0) / weight)
    kind = "entangled-pair" if alpha > 0.0 and beta > 0.0 else "product"
    return ConditionalState(m, s, k, kind, alpha, beta, weight)


def conditional_state(dist: JointDistribution, m: int) -> ConditionalState:
    """Renormalized (l, n) state of the fixed-m slice of the table."""
    if not (0 <= m <= dist.n_total):
        raise DomainError(
            f"central count {m} outside [0, {dist.n_total}]"
        )
    slice_f = {
        (l, n): f
        for (l, mm, n), f in dist.table.items()
        if mm == m and f > 0.0
    }
    return _slice_state(dist.n_total, m, slice_f)


def conditional_states(dist: JointDistribution) -> list[ConditionalState]:
    """``conditional_state`` for every m in [0, n_total], in one pass."""
    slices: list[dict[tuple[int, int], float]] = [
        {} for _ in range(dist.n_total + 1)
    ]
    for (l, m, n), f in dist.table.items():
        if 0 <= m <= dist.n_total and f > 0.0:
            slices[m][(l, n)] = f
    return [
        _slice_state(dist.n_total, m, slice_f)
        for m, slice_f in enumerate(slices)
    ]


def entanglement_entropy(cond: ConditionalState) -> float:
    """Bipartite entropy of the conditional state, in bits.

    Zero for any product state; the binary entropy of the renormalized
    coefficient split for an entangled pair. An empty slice has no state
    to measure.
    """
    if cond.kind == "empty":
        raise DomainError(
            f"slice m={cond.measured_m} is empty; no state to measure"
        )
    if cond.kind == "product":
        return 0.0
    a2 = cond.alpha * cond.alpha
    b2 = cond.beta * cond.beta
    p = a2 / (a2 + b2)
    q = 1.0 - p
    if p == 0.0 or q == 0.0:
        return 0.0
    return -p * log2(p) - q * log2(q)


def purity_check(dist: JointDistribution) -> PurityReport:
    """Trace and idempotency of the outer-product density operator.

    The state is rank one by construction, so rho^2 - rho = (t - 1) rho
    with t the trace, and the trace-norm residual is t |t - 1|. Both
    ``rank_one`` and ``idempotency_residual`` therefore follow from the
    sum rule (the trace) and are not an independent check of the table.
    """
    t = dist.total()
    return PurityReport(
        trace=t,
        rank_one=True,
        idempotency_residual=t * abs(t - 1.0),
    )


def parity_xor(dist: JointDistribution) -> ParityReport:
    """Check parity(m) against parity(l) xor parity(n) on every triple.

    l + m + n is fixed, so for an even total the central parity equals the
    xor of the side parities and for an odd total its negation.
    """
    even_total = dist.n_total % 2 == 0
    rows = []
    all_hold = True
    for key in sorted(dist.table):
        l, m, n = key
        parity_l = l & 1
        parity_n = n & 1
        parity_m = m & 1
        side = parity_l ^ parity_n
        expected = side if even_total else side ^ 1
        holds = parity_m == expected
        all_hold = all_hold and holds
        rows.append((l, m, n, parity_l, parity_n, parity_m, holds))
    return ParityReport(
        n_total=dist.n_total,
        gate="XOR" if even_total else "NXOR",
        rows=rows,
        all_hold=all_hold,
    )


def logical_qubit_projection(
    dist: JointDistribution, m_parity: int
) -> LogicalProjection:
    """Collapse one m-parity sector onto (l-parity, n-parity) pairs.

    The parity law confines each sector to one diagonal of the 2x2 parity
    grid: equal side parities when parity(m) matches parity(n_total),
    opposite ones otherwise.
    """
    if m_parity not in (0, 1):
        raise DomainError(f"m parity must be 0 or 1, got {m_parity}")
    support: dict[tuple[int, int], float] = {}
    for key in sorted(dist.table):
        l, m, n = key
        f = dist.table[key]
        if f <= 0.0 or (m & 1) != m_parity:
            continue
        pair = (l & 1, n & 1)
        support[pair] = support.get(pair, 0.0) + f
    if m_parity == dist.n_total % 2:
        allowed = frozenset({(0, 0), (1, 1)})
    else:
        allowed = frozenset({(0, 1), (1, 0)})
    return LogicalProjection(
        n_total=dist.n_total,
        m_parity=m_parity,
        support=support,
        allowed=allowed,
        confined=set(support) <= allowed,
    )
