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
before the terminal decay, so each start walks on its own, split by the
parity of c: ``even[j]`` holds c = 2j and ``odd[j]`` c = 2j + 1. The
central count m is implied by the step number.

When all four rates are 1/2 (the symmetric kind, or manual rows that
normalize to 1/2), the crossing count is binomial and ``_equal_walks``
writes every entry in closed form, correctly rounded, at any N, with no
array. Other rows run one of two walks of that layout, which give the
same bits, so no result depends on whether numpy, an optional extra, is
installed. Up to ``LIST_LIMIT`` (1400) photons ``_walk`` keeps the two
lists as plain Python lists and numpy is never imported. Above it the
lists are zero-padded float64 arrays, advanced one hop at a time by
``evolve_step``, when numpy is installed, and ``_walk``'s lists
otherwise, only slower.

The branching rows (``BranchingModel``) are defined here, not beside the
physics in ``coupling`` that derives them, so the cascade and the oracles
load without the eigensolver.
"""

from __future__ import annotations

from collections import namedtuple
from math import copysign, frexp, fsum, isfinite, ldexp, sqrt
from sys import float_info

from .errors import DomainError, NumericError, ValidationError

HIGH = "H"
LOW = "L"

# run_cascade's largest N for the list kernel on general rows: up to it a
# fresh process spends less on the O(N^2) list loop than on numpy's import.
LIST_LIMIT = 1400

CountKey = tuple[int, int, int]


class InitialExcitation(namedtuple("InitialExcitation", "c_h c_l")):
    """Amplitudes (c_h, c_l) of the starting sublevel superposition.

    Both are nonnegative, with the sign bit clear (-0.0 is refused), and
    c_h^2 + c_l^2 = 1 within 1e-12. Only the squared magnitudes enter the
    evolution; the amplitudes themselves matter to the sign audit.

    Fields: c_h, c_l (float).
    """

    __slots__ = ()

    def __new__(cls, c_h: float, c_l: float) -> "InitialExcitation":
        if not isfinite(c_h) or not isfinite(c_l):
            raise DomainError("initial amplitudes must be finite")
        # by the sign bit, so a negative entry rounded to -0.0 by scaling is refused
        if copysign(1.0, c_h) < 0 or copysign(1.0, c_l) < 0:
            raise DomainError(
                f"initial amplitudes must be nonnegative, got ({c_h}, {c_l})"
            )
        norm = c_h * c_h + c_l * c_l
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(
                f"initial amplitudes must be normalized: |c|^2 = {norm}"
            )
        return super().__new__(cls, c_h, c_l)

    @classmethod
    def _make(cls, iterable) -> "InitialExcitation":
        # _replace builds through _make: route it through the checks
        return cls(*iterable)

    @classmethod
    def normalized(cls, c_h: float, c_l: float) -> "InitialExcitation":
        """Scale a nonnegative, not-all-zero pair onto the unit circle.

        If c_h^2 + c_l^2 would overflow or fall below the normal range,
        both entries are first scaled by the power of two that brings the
        larger one into [0.5, 1). Elsewhere the direct formula is used
        unchanged, so those results keep every bit. The constructor
        refuses a negative entry of the scaled pair; division by the norm
        keeps each sign.
        """
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


class BranchingModel(namedtuple("BranchingModel", "p_hh p_hl p_lh p_ll weighting")):
    """Row-stochastic transition probabilities of the two-sublevel ladder.

    Rows are (p_hh, p_hl) for an H sublevel and (p_lh, p_ll) for an L
    sublevel. Terminal transitions are fixed: an H sublevel decays to the
    final ground emitting into the high-frequency accumulator, an L
    sublevel into the low-frequency one, each with probability 1.
    ``weighting`` names the kind that made the rows.

    Fields: p_hh, p_hl, p_lh, p_ll (float); weighting (str).
    """

    __slots__ = ()

    def __new__(
        cls, p_hh: float, p_hl: float, p_lh: float, p_ll: float,
        weighting: str = "manual",
    ) -> "BranchingModel":
        for name, p in zip(cls._fields, (p_hh, p_hl, p_lh, p_ll)):
            if not isfinite(p) or p < 0.0 or p > 1.0:
                raise DomainError(f"{name}={p} is not a probability")
        if abs(p_hh + p_hl - 1.0) > 1e-9:
            raise DomainError(
                f"H row sums to {p_hh + p_hl}, expected 1 within 1e-9"
            )
        if abs(p_lh + p_ll - 1.0) > 1e-9:
            raise DomainError(
                f"L row sums to {p_lh + p_ll}, expected 1 within 1e-9"
            )
        return super().__new__(cls, p_hh, p_hl, p_lh, p_ll, weighting)

    @classmethod
    def _make(cls, iterable) -> "BranchingModel":
        # _replace builds through _make: route it through the checks
        return cls(*iterable)

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


def _on_support(n_total: int, key: CountKey) -> bool:
    """Whether ``key`` is an (l, m, n) of int counts on the support of ``n_total``."""
    if type(key) is not tuple or len(key) != 3:
        return False
    l, m, n = key
    # |l - n| <= 1 and l + n >= 1 already make l and n nonnegative
    return (
        type(l) is type(m) is type(n) is int and m >= 0
        and l + m + n == n_total and abs(l - n) <= 1 and l + n >= 1
    )


class JointDistribution:
    """Final probability table over photon counts (l, m, n).

    Every entry lies on the support: its key is three int counts with
    l + m + n = n_total, |l - n| <= 1 and l + n >= 1, and its mass is
    finite and positive; a count that did not occur has no entry. The
    constructor checks this once and raises NumericError naming the first
    entry off it, so the readers in ``analysis`` trust the table as it is.
    ``table`` lists its keys in ascending (l, m, n) order, whatever order
    the producer built them in.
    """

    def __init__(
        self, n_total: int, table: dict[CountKey, float] | None = None
    ) -> None:
        table = table or {}
        for key, f in table.items():
            if not _on_support(n_total, key):
                raise NumericError(
                    f"entry {key} is off the support of N = {n_total}: "
                    "l + m + n = N, |l - n| <= 1, l + n >= 1"
                )
            if not (f > 0.0 and isfinite(f)):
                raise NumericError(
                    f"entry {key} of N = {n_total} holds mass {f}, "
                    "not finite and positive"
                )
        self.n_total = n_total
        self.table = dict(sorted(table.items()))

    def total(self) -> float:
        return fsum(self.table.values())

    def amplitudes(self) -> dict[CountKey, float]:
        """Square roots of the probabilities, for the positive pure state."""
        return {k: sqrt(f) for k, f in self.table.items()}


Walk = tuple[list[float], list[float]]


def _decay(n_total: int, high: Walk, low: Walk) -> JointDistribution:
    """The terminal decay of the H start's (``high``) and L start's (``low``)
    final ``(even, odd)`` masses; a start not walked is ``([], [])``.

    The closing photon goes to n from an H sublevel and to l from an L
    sublevel, with probability 1 either way, so crossing count c ends at
    m = n_total - 1 - c. The two starts meet only on the diagonal
    (k + 1, m, k + 1) reached with c = 2k + 1 odd, where the sum of two
    masses does not depend on their order.
    """
    top = n_total - 1
    table: dict[CountKey, float] = {}

    def decay(target: CountKey, w: float) -> None:
        if w != 0.0:
            table[target] = table.get(target, 0.0) + w

    (h_even, h_odd), (l_even, l_odd) = high, low
    for k, w in enumerate(h_even):
        decay((k, top - 2 * k, k + 1), w)
    for k, w in enumerate(l_even):
        decay((k + 1, top - 2 * k, k), w)
    for odd in (h_odd, l_odd):
        for k, w in enumerate(odd):
            decay((k + 1, top - 1 - 2 * k, k + 1), w)
    return JointDistribution(n_total=n_total, table=table)


def _walk(
    steps: int, mass: float, stay_a: float, cross_a: float,
    stay_b: float, cross_b: float,
) -> Walk:
    """One start's ``(even, odd)`` masses after ``steps`` hops.

    The start sits on sublevel a with rates (stay_a, cross_a); the other
    sublevel b has (stay_b, cross_b). Even crossing counts sit on a, odd
    ones on b, so ``even[j]`` holds c = 2j and ``odd[j]`` holds c = 2j + 1,
    with at most steps // 2 + 1 and (steps + 1) // 2 entries. An entry past
    a list's end is 0.0. Each hop offers one list one more entry, a lone
    product where ``evolve_step`` adds it to a padded 0.0, which leaves it
    unchanged; a product that is exactly 0.0 is not appended, and the next
    hop offers that place again. So the lists are ``_walk_arrays``' with
    trailing zeros cut, and every other bit matches: skewed rows push the
    crossing tail below float range, and the walk does not multiply it.
    """
    even = [mass]
    odd: list[float] = []
    for _ in range(steps):
        new_even = [even[0] * stay_a]
        new_even += [e * stay_a + o * cross_b for e, o in zip(even[1:], odd)]
        new_odd = [o * stay_b + e * cross_a for o, e in zip(odd, even)]
        if len(odd) == len(even):
            edge = odd[-1] * cross_b
            if edge:
                new_even.append(edge)
        else:
            edge = even[-1] * cross_a
            if edge:
                new_odd.append(edge)
        even, odd = new_even, new_odd
    return even, odd


def _equal_walks(steps: int, w_h: float, w_l: float) -> tuple[Walk, Walk]:
    """The H and L starts' walks when all four rates are 1/2, in closed
    form, each entry of the table they decay to correctly rounded.

    Every hop then crosses with probability 1/2 whatever the sublevel, so
    a start of mass w ends at crossing count c with w * C(steps, c) /
    2^steps. ``as_integer_ratio`` writes both masses exactly over one
    power of two, and C(steps, c) is an exact int, built for the first half
    of the row and mirrored. So each entry is one int true division, which
    CPython rounds correctly: it is the float nearest its exact value,
    subnormals included, and one that rounds to 0.0 is dropped by
    ``_decay``. Odd c of both starts decay onto the same keys, so their
    exact sum is divided once, into the H walk's odd list, and the L
    walk's odd list is left empty.
    """
    (h, d_h), (l, d_l) = w_h.as_integer_ratio(), w_l.as_integer_ratio()
    den = max(d_h, d_l)  # both are powers of two
    h, l, den = h * (den // d_h), l * (den // d_l), den << steps
    binom = [1]
    for c in range(steps // 2):
        binom.append(binom[-1] * (steps - c) // (c + 1))
    binom += binom[-1 - (steps + 1) % 2::-1]

    def row(num: int, parity: int) -> list[float]:
        return [num * b / den for b in binom[parity::2]] if num else []

    return (row(h, 0), row(h + l, 1)), (row(l, 0), [])


def evolve_step(
    even: np.ndarray, odd: np.ndarray, stay_a: float, cross_a: float,
    stay_b: float, cross_b: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One hop of ``_walk``'s ladder on zero-padded arrays.

    Staying emits a central photon (m, implied by the step count) and
    keeps c; crossing raises c by one, from a to b or from b back to a.
    """
    new_even = even * stay_a
    new_even[1:] += odd[:-1] * cross_b
    new_odd = odd * stay_b
    new_odd += even * cross_a
    return new_even, new_odd


def _walk_arrays(
    steps: int, mass: float, stay_a: float, cross_a: float,
    stay_b: float, cross_b: float,
) -> Walk:
    """``_walk`` on two zero-padded float64 arrays, the padding cut off after."""
    import numpy as np

    even = np.zeros(steps // 2 + 1)
    odd = np.zeros(steps // 2 + 1)
    even[0] = mass
    for _ in range(steps):
        # looked up on each hop, so a wrapper set on the module sees every call
        even, odd = evolve_step(even, odd, stay_a, cross_a, stay_b, cross_b)
    return even.tolist(), odd[:(steps + 1) // 2].tolist()


def _array_kernel():
    """``_walk_arrays`` when numpy is installed, ``_walk`` otherwise.

    numpy is an optional extra and both walks give the same bits, so only
    its absence falls back: a numpy that is installed but fails to import
    still raises.
    """
    try:
        import numpy
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        return _walk
    return _walk_arrays


def run_cascade(
    n_total: int, init: InitialExcitation, branching: BranchingModel
) -> JointDistribution:
    """Full evolution: n_total - 1 ladder steps then the terminal decay.

    When all four rates are 1/2, as for the symmetric kind, both starts
    are written in closed form by ``_equal_walks`` at any N, each table
    entry the float nearest its exact value. Other rows walk each start:
    up to ``LIST_LIMIT`` photons as Python lists (``_walk``), above it as
    numpy arrays (``_walk_arrays``), or by ``_walk`` when numpy is not
    installed, with the same bits either way. A start of zero weight is
    not walked: its masses would all be zero, which ``_decay`` drops.
    """
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    b, steps = branching, n_total - 1
    w_h, w_l = init.c_h * init.c_h, init.c_l * init.c_l
    if b[:4] == (0.5, 0.5, 0.5, 0.5):
        return _decay(n_total, *_equal_walks(steps, w_h, w_l))
    kernel = _walk if n_total <= LIST_LIMIT else _array_kernel()

    def walk(mass: float, *rates: float) -> Walk:
        if not mass:
            return [], []
        return kernel(steps, mass, *rates)

    return _decay(
        n_total,
        walk(w_h, b.p_hh, b.p_hl, b.p_ll, b.p_lh),
        walk(w_l, b.p_ll, b.p_lh, b.p_hh, b.p_hl),
    )
