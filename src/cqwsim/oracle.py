"""Independent checks of the cascade dynamic program.

Three cross-checks with different failure modes: brute-force path
enumeration (exact, exponential), Monte Carlo trajectory sampling
(statistical), and a signed-amplitude replay that measures how much the
incoherent bookkeeping could deviate from a coherent sum over paths.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import reduce
from math import fsum, sqrt
from operator import add

from .cascade import (
    HIGH,
    LOW,
    BranchingModel,
    CountKey,
    InitialExcitation,
    JointDistribution,
)
from .errors import DomainError, SizeError, ValidationError

ENUM_LIMIT = 20
AUDIT_LIMIT = 16
# ``_binomial`` draws its coins in chunks of this many bits, a multiple of 32,
# so one draw's memory stays bounded at any walker count
CHUNK_BITS = 1 << 20
SIGN_MODES = ("all-positive", "cmt-signs")


class AuditReport(namedtuple("AuditReport", "sign_mode final_norm colliding_states")):
    """Outcome of the signed-amplitude replay.

    ``final_norm`` is the squared norm of the coherent final state;
    ``colliding_states`` lists the (l, m, n) triples reached by two or
    more distinct positive-probability paths, the only places where signs
    can interfere.

    Fields: sign_mode (str); final_norm (float); colliding_states (list of
    (int, int, int)).
    """

    __slots__ = ()


def enumerate_paths(
    n_total: int, init: InitialExcitation, branching: BranchingModel
) -> JointDistribution:
    """Sum the probability of every branch string exactly.

    A path is a starting sublevel plus one stay/cross bit per ladder step.
    Exponential in the photon number, so capped at 20.

    The paths of one start are held in lists grouped by their crossing
    count c, each list in path-index order: bit ``step`` of index j is the
    crossing flag of that step, least significant bit first. All paths of
    a group sit on one sublevel (the start's if c is even, the other if
    odd), so one rate scales the whole group. A step makes the new group c
    from group c times its stay rate, then group c - 1 times its cross
    rate: path j stays as j and crosses as j + 2^step, which lies above
    every older index, so the order holds. The last step is summed as it
    is made, so memory is about 2^(N-2) floats per start.

    Each value equals the sum of the path weights in path-index order, bit
    for bit: each path weight is the start weight times the branch
    probabilities multiplied left to right; each group is added in path
    order (zero weights add nothing), and an L-start sum continues from
    the H-start sum of the same key. A key enters the table once some
    path reaches it with positive weight; ``JointDistribution`` lists the
    keys in ascending order. ``reduce`` adds plainly, where the builtin
    ``sum`` compensates from Python 3.12.
    """
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    if n_total > ENUM_LIMIT:
        raise SizeError(
            f"exhaustive enumeration capped at {ENUM_LIMIT} photons, got {n_total}"
        )
    steps = n_total - 1
    h_rates = (float(branching.p_hh), float(branching.p_hl))
    l_rates = (float(branching.p_ll), float(branching.p_lh))
    table: dict[CountKey, float] = {}
    for start, amplitude in ((HIGH, init.c_h), (LOW, init.c_l)):
        if not amplitude > 0:
            continue
        # (stay, cross) rates of the sublevel of group c, by the parity of c
        rates = (h_rates, l_rates) if start == HIGH else (l_rates, h_rates)
        groups = [[float(amplitude * amplitude)]]
        for _ in range(steps - 1):
            groups = list(_grown(groups, rates))
        # the last step's groups are made and summed one at a time
        final = _grown(groups, rates) if steps else groups
        for c, group in enumerate(final):
            if not any(group):
                continue
            # H emits into n and L into l, when crossing and when decaying
            # at the end: c // 2 + 1 photons come from the start sublevel
            own, other = c // 2 + 1, (c + 1) // 2
            l, n = (other, own) if start == HIGH else (own, other)
            key = (l, n_total - l - n, n)
            table[key] = reduce(add, group, table.get(key, 0.0))
    return JointDistribution(n_total=n_total, table=table)


def _grown(groups: list[list[float]], rates) -> Iterator[list[float]]:
    """The groups one step on, by c: group c stays, then group c - 1 crosses."""
    for c in range(len(groups) + 1):
        stay, cross = rates[c % 2][0], rates[(c - 1) % 2][1]
        group = [w * stay for w in groups[c]] if c < len(groups) else []
        if c:
            group += [w * cross for w in groups[c - 1]]
        yield group


def sample_walks(
    n_total: int,
    init: InitialExcitation,
    branching: BranchingModel,
    count: int,
    seed: int,
) -> JointDistribution:
    """Empirical (l, m, n) frequencies from Monte Carlo trajectories.

    The walkers move as a population on ``random.Random(seed)``:
    Binomial(count, c_h^2) of them start on H, the rest on L. At each
    ladder step every occupied state (sublevel, l, n), taken in sorted
    order, sends Binomial(k, p) of its k walkers across (p = p_hl from H,
    p_lh from L) and keeps the rest. Each draw is ``_binomial``, so a
    given seed reproduces byte-identical frequencies, and the result is
    the one a walker-by-walker comparison of uniforms with p would give
    on the same random bits; the table's keys then ascend like any
    ``JointDistribution``'s. Time is O(N^2) draws plus about 2 ``count``
    random bits per step; memory does not grow with ``count``.
    """
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    if count < 1:
        raise DomainError(f"sample count must be at least 1, got {count}")
    from random import Random  # only the sampler draws, so only it loads random

    rng = Random(seed)
    p_hl, p_lh = float(branching.p_hl), float(branching.p_lh)
    high = _binomial(rng, count, float(init.c_h * init.c_h))
    states = {(HIGH, 0, 0): high, (LOW, 0, 0): count - high}
    for _ in range(n_total - 1):
        moved: dict[tuple[str, int, int], int] = {}
        for (branch, l, n), k in sorted(states.items()):
            if not k:
                continue
            if branch == HIGH:
                crossed = _binomial(rng, k, p_hl)
                stay, cross = (HIGH, l, n), (LOW, l, n + 1)
            else:
                crossed = _binomial(rng, k, p_lh)
                stay, cross = (LOW, l, n), (HIGH, l + 1, n)
            moved[stay] = moved.get(stay, 0) + k - crossed
            moved[cross] = moved.get(cross, 0) + crossed
        states = moved
    hits: dict[CountKey, int] = {}
    m = n_total - 1
    for (branch, l, n), k in states.items():
        if not k:
            continue
        key = (l, m - l - n, n + 1) if branch == HIGH else (l + 1, m - l - n, n)
        hits[key] = hits.get(key, 0) + k
    return JointDistribution(
        n_total=n_total, table={key: k / count for key, k in hits.items()}
    )


def _binomial(rng, k: int, p: float) -> int:
    """Binomial(k, p) successes on ``rng``, a ``random.Random``, exact for
    every float p.

    Trial i succeeds when its uniform u = 0.u1 u2 u3 ... (fair coins) is
    below p = 0.p1 p2 p3 ..., and the first coin that differs from p's bit
    decides: a 0 coin against a 1 bit succeeds, a 1 coin against a 0 bit
    fails. So at each bit of p only the trials still tied draw a coin, and
    the 1 coins among them are the set bits of ``getrandbits``, drawn in
    chunks of at most ``CHUNK_BITS``. That is a multiple of 32, so the
    chunks hold the bits one ``getrandbits(tied)`` would, in bounded
    memory. Past p's last set bit every tied trial has u >= p and fails,
    so p = 0 draws nothing. About 2k random bits and no libm call.
    """
    if p >= 1.0:
        return k
    numerator, denominator = p.as_integer_ratio()  # a power of two
    successes = 0
    tied = k
    for shift in range(denominator.bit_length() - 2, -1, -1):
        if not tied:
            break
        ones = 0
        left = tied
        while left > CHUNK_BITS:
            ones += rng.getrandbits(CHUNK_BITS).bit_count()
            left -= CHUNK_BITS
        ones += rng.getrandbits(left).bit_count()
        if (numerator >> shift) & 1:
            successes += tied - ones
            tied = ones
        else:
            tied -= ones
    return successes


def tv_distance(p: JointDistribution, q: JointDistribution) -> float:
    """Total variation distance between two count distributions."""
    p_table, q_table = p.table, q.table
    keys = p_table.keys() | q_table.keys()
    return 0.5 * fsum(abs(p_table.get(k, 0.0) - q_table.get(k, 0.0)) for k in keys)


def coherence_audit(
    n_total: int,
    init: InitialExcitation,
    branching: BranchingModel,
    sign_mode: str = "all-positive",
) -> AuditReport:
    """Replay the cascade with amplitudes and explicit signs.

    Each transition contributes the square root of its probability; in
    "cmt-signs" mode every contribution leaving an L sublevel carries a
    global minus, the sign structure of the antisymmetric sublevel. The
    squared norm of the final state equals 1 exactly when no two paths
    collide on a final triple; collisions make it sign-dependent.
    Amplitude replay doubles the dynamic range, so capped at 16 photons.

    The replay keeps one map from each state (sublevel, l, n) to its signed
    amplitude and path count; each step, and the final decay onto (l, m, n),
    folds it into the next map in sorted key order.
    """
    if sign_mode not in SIGN_MODES:
        raise ValidationError(
            f"unknown sign mode {sign_mode!r}: expected one of {SIGN_MODES}"
        )
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    if n_total > AUDIT_LIMIT:
        raise SizeError(
            f"amplitude audit capped at {AUDIT_LIMIT} photons, got {n_total}"
        )
    low_sign = -1.0 if sign_mode == "cmt-signs" else 1.0
    r_hh, r_hl = sqrt(branching.p_hh), sqrt(branching.p_hl)
    r_lh, r_ll = sqrt(branching.p_lh), sqrt(branching.p_ll)
    state: dict[tuple[str, int, int], tuple[float, int]] = {
        (start, 0, 0): (amplitude, 1)
        for start, amplitude in ((HIGH, init.c_h), (LOW, init.c_l)) if amplitude > 0
    }
    for _ in range(n_total - 1):
        moved: dict[tuple[str, int, int], tuple[float, int]] = {}
        for (branch, l, n), (a, c) in sorted(state.items()):
            if branch == HIGH:
                moves = (((HIGH, l, n), r_hh, 1.0), ((LOW, l, n + 1), r_hl, 1.0))
            else:
                moves = (((HIGH, l + 1, n), r_lh, low_sign), ((LOW, l, n), r_ll, low_sign))
            for target, root, sign in moves:
                if root == 0.0:
                    continue
                total, count = moved.get(target, (0.0, 0))
                moved[target] = (total + sign * a * root, count + c)
        state = moved
    final: dict[CountKey, tuple[float, int]] = {}
    m = n_total - 1
    for (branch, l, n), (a, c) in sorted(state.items()):
        if branch == HIGH:
            target, contribution = (l, m - l - n, n + 1), a
        else:
            target, contribution = (l + 1, m - l - n, n), low_sign * a
        total, count = final.get(target, (0.0, 0))
        final[target] = (total + contribution, count + c)
    norm = fsum(a ** 2 for a, _ in final.values())
    colliding = sorted(key for key, (_, c) in final.items() if c >= 2)
    return AuditReport(sign_mode=sign_mode, final_norm=norm, colliding_states=colliding)
