"""Post-processing of the final photon-count distribution.

The support constraint |l - n| <= 1 makes every fixed-m slice at most
two-dimensional in (l, n), so conditioning on the central count either
pins the side counts completely or leaves a single two-level degree of
freedom shared between them.

Every reader trusts the table: ``JointDistribution`` refuses an entry off
the support, or with a mass that is not finite and positive, when it is
built. So each (l, n) has one m, a slice is read by looking up its at
most two keys, and a missing key means the count did not occur.
"""

from __future__ import annotations

from collections import namedtuple
from math import log2, sqrt

from .cascade import JointDistribution
from .errors import DomainError


class ConditionalState(namedtuple(
    "ConditionalState", "measured_m s k kind alpha beta weight"
)):
    """State of the (l, n) pair after conditioning on the central count.

    For s = n_total - measured_m remaining photons and k = s // 2, an even
    s gives the product state |k, k> and an odd s the superposition
    alpha |k, k+1> + beta |k+1, k>. ``weight`` is the probability of the
    slice; an empty slice carries kind "empty" and no coefficients.

    Fields: measured_m, s, k (int); kind (str); alpha, beta (float or
    None); weight (float).
    """

    __slots__ = ()


class ParityReport(namedtuple("ParityReport", "n_total gate rows all_hold")):
    """Per-triple check of the parity gate between m and (l, n).

    Fields: n_total (int); gate (str); rows (list of (int, int, int, int,
    int, int, bool)); all_hold (bool).
    """

    __slots__ = ()


class PurityReport(namedtuple("PurityReport", "trace rank_one idempotency_residual")):
    """Diagnostics of the rank-one density operator built from the table.

    Fields: trace (float); rank_one (bool); idempotency_residual (float).
    """

    __slots__ = ()


def marginals(dist: JointDistribution) -> tuple[list[float], list[float], list[float]]:
    """Marginal probability lists of l, m, and n, each of length n+1."""
    size = dist.n_total + 1
    p_l, p_m, p_n = [0.0] * size, [0.0] * size, [0.0] * size
    for (l, m, n), f in dist.table.items():
        p_l[l] += f
        p_m[m] += f
        p_n[n] += f
    return p_l, p_m, p_n


def joint_pm(dist: JointDistribution) -> dict[tuple[int, int], float]:
    """Joint probability of (l, n), summed over the central count.

    The support stays on the three diagonals n - l in {-1, 0, +1}, and
    l + n fixes m, so each (l, n) carries one entry of the table.
    """
    return {(l, n): f for (l, _, n), f in dist.table.items()}


def conditional_state(dist: JointDistribution, m: int) -> ConditionalState:
    """Renormalized (l, n) state of the fixed-m slice of the table.

    With s = n_total - m and k = s // 2 the slice holds at most the
    entry (k, m, k) for an even s, and (k, m, k + 1) and (k + 1, m, k)
    for an odd s; its weight is their sum, which is correctly rounded.
    """
    if not (0 <= m <= dist.n_total):
        raise DomainError(
            f"central count {m} outside [0, {dist.n_total}]"
        )
    s = dist.n_total - m
    k = s // 2
    get = dist.table.get
    if s % 2 == 0:
        weight = get((k, m, k), 0.0)
        if not weight:
            return ConditionalState(m, s, k, "empty", None, None, 0.0)
        return ConditionalState(m, s, k, "product", None, None, weight)
    a = get((k, m, k + 1), 0.0)
    b = get((k + 1, m, k), 0.0)
    weight = a + b
    if not weight:
        return ConditionalState(m, s, k, "empty", None, None, 0.0)
    alpha = sqrt(a / weight)
    beta = sqrt(b / weight)
    kind = "entangled-pair" if alpha > 0.0 and beta > 0.0 else "product"
    return ConditionalState(m, s, k, kind, alpha, beta, weight)


def conditional_states(dist: JointDistribution) -> list[ConditionalState]:
    """``conditional_state`` for every m in [0, n_total]."""
    return [conditional_state(dist, m) for m in range(dist.n_total + 1)]


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
    for l, m, n in dist.table:
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

