"""Photon-count bookkeeping for the hopping cascade.

An excitation starts in one of the two split sublevels of the first
aligned pair and hops down the chain one pair per step, emitting one
photon per hop into the low (l), central (m), or high (n) frequency
accumulator. The evolution is incoherent: sublevel populations carry
probability mass and each step applies the branching rows, so the final
photon-count distribution is an exact dynamic program.

A state is fixed by its starting sublevel and its crossing count c, the
number of hops that changed sublevel. From an H start, c even sits on H
and c odd on L, with l = c // 2 and n = (c + 1) // 2; an L start is the
mirror image. The two starts never reach the same (sublevel, l, n)
before the terminal decay, so the state is two length-N arrays over c,
one per start. The central count m is implied by the step number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp, fsum, isfinite, ldexp, sqrt
from sys import float_info
from types import MappingProxyType
from typing import Mapping

from .coupling import BranchingModel
from .errors import DomainError, SequencingError

HIGH = "H"
LOW = "L"

StateKey = tuple[str, int, int]
CountKey = tuple[int, int, int]


@dataclass(frozen=True)
class InitialExcitation:
    """Amplitudes (c_h, c_l) of the starting sublevel superposition.

    Both are nonnegative and c_h^2 + c_l^2 = 1 within 1e-12. Only the
    squared magnitudes enter the evolution; the amplitudes themselves
    matter to the sign audit.
    """

    c_h: float
    c_l: float

    def __post_init__(self) -> None:
        if not isfinite(self.c_h) or not isfinite(self.c_l):
            raise DomainError("initial amplitudes must be finite")
        if self.c_h < 0 or self.c_l < 0:
            raise DomainError(
                f"initial amplitudes must be nonnegative, got ({self.c_h}, {self.c_l})"
            )
        norm = self.c_h * self.c_h + self.c_l * self.c_l
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(
                f"initial amplitudes must be normalized: |c|^2 = {norm}"
            )

    @classmethod
    def normalized(cls, c_h: float, c_l: float) -> "InitialExcitation":
        """Scale a nonnegative, not-all-zero pair onto the unit circle.

        If c_h^2 + c_l^2 would overflow or fall below the normal range,
        both entries are first scaled by the power of two that brings the
        larger one into [0.5, 1). Elsewhere the direct formula is used
        unchanged, so those results keep every bit.
        """
        if c_h < 0 or c_l < 0:
            raise DomainError(
                f"initial amplitudes must be nonnegative, got ({c_h}, {c_l})"
            )
        total = c_h * c_h + c_l * c_l
        if not float_info.min <= total <= float_info.max:
            exponent = frexp(max(c_h, c_l))[1]
            c_h, c_l = ldexp(c_h, -exponent), ldexp(c_l, -exponent)
            total = c_h * c_h + c_l * c_l
        norm = sqrt(total)
        if not isfinite(norm):
            raise DomainError("initial amplitudes must be finite")
        if not norm > 0:
            raise DomainError("initial amplitudes must not both vanish")
        return cls(c_h / norm, c_l / norm)

    @classmethod
    def balanced(cls) -> "InitialExcitation":
        return cls.normalized(1.0, 1.0)


@dataclass(eq=False)
class CascadeState:
    """Populations after ``step`` hops over crossing count c.

    ``high[c]`` is the mass that started on H and has crossed c times,
    ``low[c]`` the same for an L start; both have length ``n_total``.
    Compare states through ``weights``: arrays have no single truth value.
    """

    n_total: int
    step: int
    high: np.ndarray
    low: np.ndarray

    @property
    def weights(self) -> Mapping[StateKey, float]:
        """Read-only view keyed by (sublevel, l, n), positive masses only."""
        view: dict[StateKey, float] = {}
        for c, (h, lo) in enumerate(zip(self.high.tolist(), self.low.tolist())):
            odd = c & 1
            if h > 0.0:
                view[(LOW if odd else HIGH, c // 2, (c + 1) // 2)] = h
            if lo > 0.0:
                view[(HIGH if odd else LOW, (c + 1) // 2, c // 2)] = lo
        return MappingProxyType(dict(sorted(view.items())))

    def mass(self) -> float:
        return fsum(self.high.tolist() + self.low.tolist())


@dataclass
class JointDistribution:
    """Final probability table over photon counts (l, m, n)."""

    n_total: int
    table: dict[CountKey, float] = field(default_factory=dict)

    def total(self) -> float:
        return fsum(self.table[k] for k in sorted(self.table))

    def amplitudes(self) -> dict[CountKey, float]:
        """Square roots of the probabilities, for the positive pure state."""
        return {k: sqrt(self.table[k]) for k in sorted(self.table)}


def initial_state(n_total: int, init: InitialExcitation) -> CascadeState:
    """Populate the first pair's sublevels with the squared amplitudes."""
    import numpy as np

    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    high = np.zeros(n_total)
    low = np.zeros(n_total)
    high[0] = init.c_h * init.c_h
    low[0] = init.c_l * init.c_l
    return CascadeState(n_total=n_total, step=0, high=high, low=low)


def _alternating(even: float, odd: float, size: int) -> np.ndarray:
    import numpy as np

    rates = np.empty(size)
    rates[0::2] = even
    rates[1::2] = odd
    return rates


def _hop(pop: np.ndarray, stay: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """new[c] = pop[c] stay[c] + pop[c - 1] cross[c - 1]."""
    new = pop * stay
    new[1:] += pop[:-1] * cross[:-1]
    return new


def evolve_step(state: CascadeState, branching: BranchingModel) -> CascadeState:
    """Apply one hop: H emits into m or n, L emits into m or l.

    Staying on the same sublevel emits a central photon (m, implied by the
    step count); crossing from H raises n, crossing from L raises l. From
    an H start, even crossing counts sit on H; from an L start, on L. Only
    the first n_total - 1 hops are ladder steps; stepping past that is a
    sequencing error.
    """
    if state.step >= state.n_total - 1:
        raise SequencingError(
            f"cascade already at step {state.step} of {state.n_total - 1}; "
            "only the terminal transition remains"
        )
    # rate[c] is the H-start rate at crossing count c; an L start sits
    # on the other sublevel, so its rate at c is rate[c + 1]
    size = state.n_total
    stay = _alternating(branching.p_hh, branching.p_ll, size + 1)
    cross = _alternating(branching.p_hl, branching.p_lh, size + 1)
    high = _hop(state.high, stay[:-1], cross[:-1])
    low = _hop(state.low, stay[1:], cross[1:])
    return CascadeState(
        n_total=state.n_total, step=state.step + 1, high=high, low=low
    )


def terminal_transition(state: CascadeState) -> JointDistribution:
    """Decay the last pair to the final ground level.

    The closing photon goes to n from an H sublevel and to l from an L
    sublevel, with probability 1 either way, so crossing count c ends at
    m = n_total - 1 - c. The two starts meet only on the diagonal
    (k + 1, m, k + 1) reached with c = 2k + 1 odd. Requires the state to
    have completed all ladder steps.
    """
    if state.step != state.n_total - 1:
        raise SequencingError(
            f"terminal transition requires step {state.n_total - 1}, "
            f"got step {state.step}"
        )
    top = state.n_total - 1
    high = state.high.tolist()
    low = state.low.tolist()
    table: dict[CountKey, float] = {}

    def decay(target: CountKey, w: float) -> None:
        if w != 0.0:
            table[target] = table.get(target, 0.0) + w

    # H-sublevel decays first, then L, each in increasing (l, n): the
    # order of the sorted (sublevel, l, n) keys.
    for c in range(state.n_total):
        k = c // 2
        if c & 1:
            decay((k + 1, top - c, k + 1), low[c])
        else:
            decay((k, top - c, k + 1), high[c])
    for c in range(state.n_total):
        k = c // 2
        if c & 1:
            decay((k + 1, top - c, k + 1), high[c])
        else:
            decay((k + 1, top - c, k), low[c])
    return JointDistribution(n_total=state.n_total, table=table)


def run_cascade(
    n_total: int, init: InitialExcitation, branching: BranchingModel
) -> JointDistribution:
    """Full evolution: n_total - 1 ladder steps then the terminal decay."""
    state = initial_state(n_total, init)
    for _ in range(n_total - 1):
        state = evolve_step(state, branching)
    return terminal_transition(state)


def support_set(n_total: int) -> frozenset[CountKey]:
    """All (l, m, n) reachable for ``n_total`` photons.

    The support is exactly {l + m + n = n_total, |l - n| <= 1, l + n >= 1};
    in particular the all-central triple (0, n_total, 0) never occurs.
    """
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    keys = set()
    for k in range(1, n_total // 2 + 1):
        keys.add((k, n_total - 2 * k, k))
    for l in range((n_total - 1) // 2 + 1):
        keys.add((l, n_total - 2 * l - 1, l + 1))
        keys.add((l + 1, n_total - 2 * l - 1, l))
    return frozenset(keys)


def support_partition(n_total: int) -> dict[str, frozenset[CountKey]]:
    """Split the support by which starting sublevel can reach each triple.

    n = l + 1 triples are reachable only from an H start, l = n + 1 only
    from an L start, and the diagonal l = n >= 1 from both.
    """
    full = support_set(n_total)
    return {
        "h_only": frozenset(k for k in full if k[2] == k[0] + 1),
        "l_only": frozenset(k for k in full if k[0] == k[2] + 1),
        "shared": frozenset(k for k in full if k[0] == k[2]),
    }
