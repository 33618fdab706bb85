"""Independent checks of the cascade dynamic program.

Three cross-checks with different failure modes: brute-force path
enumeration (exact, exponential), Monte Carlo trajectory sampling
(statistical), and a signed-amplitude replay that measures how much the
incoherent bookkeeping could deviate from a coherent sum over paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt
from typing import Iterator

import numpy as np

from .cascade import (
    HIGH,
    LOW,
    CountKey,
    InitialExcitation,
    JointDistribution,
)
from .coupling import BranchingModel
from .errors import DomainError, SizeError, ValidationError

ENUM_LIMIT = 20
AUDIT_LIMIT = 16
SIGN_MODES = ("all-positive", "cmt-signs")


@dataclass(frozen=True)
class PathRecord:
    """One fully specified trajectory through the cascade.

    ``choices`` holds one stay/cross flag per ladder step; the terminal
    emission is forced by the final sublevel, so it carries no choice.
    ``probability`` is the start weight times every branch probability
    along the way, and ``counts`` the resulting (l, m, n).
    """

    start: str
    choices: tuple[bool, ...]
    counts: CountKey
    probability: float


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the signed-amplitude replay.

    ``final_norm`` is the squared norm of the coherent final state;
    ``colliding_states`` lists the (l, m, n) triples reached by two or
    more distinct positive-probability paths, the only places where signs
    can interfere.
    """

    sign_mode: str
    final_norm: float
    colliding_states: list[CountKey]


def iter_paths(
    n_total: int, init: InitialExcitation, branching: BranchingModel
) -> Iterator[PathRecord]:
    """Yield every positive-probability path in deterministic order."""
    starts = []
    if init.c_h > 0:
        starts.append((HIGH, init.c_h * init.c_h))
    if init.c_l > 0:
        starts.append((LOW, init.c_l * init.c_l))
    steps = n_total - 1
    for branch0, w0 in starts:
        for bits in range(1 << steps):
            branch = branch0
            l = 0
            n = 0
            w = w0
            choices = []
            for step in range(steps):
                cross = bool((bits >> step) & 1)
                choices.append(cross)
                if branch == HIGH:
                    if cross:
                        w *= branching.p_hl
                        n += 1
                        branch = LOW
                    else:
                        w *= branching.p_hh
                else:
                    if cross:
                        w *= branching.p_lh
                        l += 1
                        branch = HIGH
                    else:
                        w *= branching.p_ll
            if w == 0.0:
                continue
            if branch == HIGH:
                n += 1
            else:
                l += 1
            yield PathRecord(
                start=branch0,
                choices=tuple(choices),
                counts=(l, n_total - l - n, n),
                probability=w,
            )


def enumerate_paths(
    n_total: int, init: InitialExcitation, branching: BranchingModel
) -> JointDistribution:
    """Sum the probability of every branch string exactly.

    A path is a starting sublevel plus one stay/cross bit per ladder step.
    Exponential in the photon number, so capped at 20.

    The branch strings of one start are grown as arrays, doubling at
    each ladder step: entry j becomes entries j (stay) and j + 2^step
    (cross), so after N - 1 steps entry j is the path whose bit ``step``
    is the crossing flag of that step, least significant bit first, as in
    ``iter_paths``. Memory is a few arrays of length 2^(N-1) per start.
    The table equals the sum over ``iter_paths`` bit for bit, in the same
    key order: each path weight is the start weight times the branch
    probabilities multiplied left to right; zero-weight paths are
    dropped; the H-start paths, then the L-start paths, are added one
    after another in string order (``np.bincount`` adds its weights in
    input order, and the L pass starts from the H sums); and keys appear
    in the order of their first path.
    """
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    if n_total > ENUM_LIMIT:
        raise SizeError(
            f"exhaustive enumeration capped at {ENUM_LIMIT} photons, got {n_total}"
        )
    # code l (N + 1) + n: each photon emitted from H adds 1, from L N + 1
    keys = np.zeros(0, dtype=np.int64)
    sums = np.zeros(0)
    for start_high, amplitude in ((True, init.c_h), (False, init.c_l)):
        if not amplitude > 0:
            continue
        high = np.array([start_high])
        code = np.zeros(1, dtype=np.int64)
        w = np.array([amplitude * amplitude])
        for _ in range(n_total - 1):
            emitted = code + np.where(high, 1, n_total + 1)
            stay = w * np.where(high, branching.p_hh, branching.p_ll)
            cross = w * np.where(high, branching.p_hl, branching.p_lh)
            w = np.concatenate((stay, cross))
            code = np.concatenate((code, emitted))
            high = np.concatenate((high, ~high))
        code += np.where(high, 1, n_total + 1)
        kept = w != 0.0
        # the earlier start's sums lead, in first-path order, so each sum
        # continues from where that start left it
        code = np.concatenate((keys, code[kept]))
        total = np.bincount(code, weights=np.concatenate((sums, w[kept])))
        first = np.full(total.size, code.size)
        np.minimum.at(first, code, np.arange(code.size))
        keys = np.flatnonzero(first < code.size)
        keys = keys[np.argsort(first[keys])]
        sums = total[keys]
    return _decoded(n_total, keys, sums)


def sample_walks(
    n_total: int,
    init: InitialExcitation,
    branching: BranchingModel,
    count: int,
    seed: int,
) -> JointDistribution:
    """Empirical (l, m, n) frequencies from Monte Carlo trajectories.

    Uses the PCG64 generator. Draw order is fixed: one uniform array of
    ``count`` values selects the starting sublevel (u < c_h^2 means H),
    then one array of ``count`` values per ladder step decides crossing
    (u < p_hl from H, u < p_lh from L), walker i always taking element i.
    A given seed therefore reproduces byte-identical frequencies. The
    table lists keys by ascending code l (N + 1) + n. Trajectories are
    consumed in lockstep from a single stream; per-worker substreams
    derived from (seed, worker index) would allow partitioned sampling
    but only the single-worker partition is implemented.
    """
    if n_total < 1:
        raise DomainError(f"photon number must be at least 1, got {n_total}")
    if count < 1:
        raise DomainError(f"sample count must be at least 1, got {count}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(count)
    is_high = u < init.c_h * init.c_h
    l = np.zeros(count, dtype=np.int64)
    n = np.zeros(count, dtype=np.int64)
    for _ in range(n_total - 1):
        rng.random(out=u)
        cross = np.where(is_high, u < branching.p_hl, u < branching.p_lh)
        n += is_high & cross
        l += cross & ~is_high
        is_high ^= cross
    n += is_high
    l += ~is_high
    hits = np.bincount(l * (n_total + 1) + n)
    present = np.flatnonzero(hits)
    return _decoded(n_total, present, hits[present] / count)


def _decoded(n_total: int, codes: np.ndarray, values: np.ndarray) -> JointDistribution:
    """The table mapping code l (N + 1) + n to (l, m, n), in ``codes`` order."""
    table: dict[CountKey, float] = {}
    for code, value in zip(codes.tolist(), values.tolist()):
        l, n = divmod(code, n_total + 1)
        table[(l, n_total - l - n, n)] = value
    return JointDistribution(n_total=n_total, table=table)


def _table_of(dist) -> dict[CountKey, float]:
    return dist.table if isinstance(dist, JointDistribution) else dist


def tv_distance(p, q) -> float:
    """Total variation distance between two count distributions.

    Accepts JointDistribution values or plain (l, m, n) -> probability
    maps.
    """
    p_table = _table_of(p)
    q_table = _table_of(q)
    keys = sorted(set(p_table) | set(q_table))
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
    amp: dict[tuple[str, int, int], float] = {}
    paths: dict[tuple[str, int, int], int] = {}
    if init.c_h > 0:
        amp[(HIGH, 0, 0)] = init.c_h
        paths[(HIGH, 0, 0)] = 1
    if init.c_l > 0:
        amp[(LOW, 0, 0)] = init.c_l
        paths[(LOW, 0, 0)] = 1
    r_hh, r_hl = sqrt(branching.p_hh), sqrt(branching.p_hl)
    r_lh, r_ll = sqrt(branching.p_lh), sqrt(branching.p_ll)
    for _ in range(n_total - 1):
        new_amp: dict[tuple[str, int, int], float] = {}
        new_paths: dict[tuple[str, int, int], int] = {}
        for key in sorted(amp):
            a = amp[key]
            c = paths[key]
            branch, l, n = key
            if branch == HIGH:
                moves = (((HIGH, l, n), r_hh, 1.0),
                         ((LOW, l, n + 1), r_hl, 1.0))
            else:
                moves = (((HIGH, l + 1, n), r_lh, low_sign),
                         ((LOW, l, n), r_ll, low_sign))
            for target, root, sign in moves:
                if root == 0.0:
                    continue
                new_amp[target] = new_amp.get(target, 0.0) + sign * a * root
                new_paths[target] = new_paths.get(target, 0) + c
        amp, paths = new_amp, new_paths
    final_amp: dict[CountKey, float] = {}
    final_paths: dict[CountKey, int] = {}
    m = n_total - 1
    for key in sorted(amp):
        branch, l, n = key
        if branch == HIGH:
            target = (l, m - l - n, n + 1)
            contribution = amp[key]
        else:
            target = (l + 1, m - l - n, n)
            contribution = low_sign * amp[key]
        final_amp[target] = final_amp.get(target, 0.0) + contribution
        final_paths[target] = final_paths.get(target, 0) + paths[key]
    norm = fsum(final_amp[k] ** 2 for k in sorted(final_amp))
    colliding = sorted(k for k, c in final_paths.items() if c >= 2)
    return AuditReport(
        sign_mode=sign_mode, final_norm=norm, colliding_states=colliding
    )
