"""Independent numerical oracles used to cross-check the solvers.

Two oracles rediscover spectra from the raw potential on a dense grid,
sharing no code with the package solvers: a Numerov shooting integrator
for single-well levels and a finite-difference tridiagonal
diagonalization for the two-well splitting. A closed-form deep-well
asymptote gives the reference for the hard-wall limit. ``dict_cascade``
is the photon-count recursion written as a dict over (sublevel, l, n)
states, the reference the array cascade must match bit for bit.
``pascal_cascade`` walks the same states on ints when all four rates are
1/2 and divides once per entry: the exact table, correctly rounded, that
the closed-form equal-rate cascade must match bit for bit.

The closed-form wave integrals have two sampled references: ``quad_product``,
adaptive Gauss-Kronrod quadrature on every region, and the route the
package used before, scipy's composite Simpson rule on the uniform grids
of ``composite_grid`` (``sampled_coupling_integrals``, and
``sampled_dipole_integrals`` over ``cqwsim.coupling.sample_chain_waves``,
whose three-well grid is ``composite_grid``'s to the bit).
``sample_wavefunction`` and ``count_nodes`` check a single sampled state's
norm and nodes.

``support_set`` enumerates the (l, m, n) support of an N-photon table,
and ``support_partition`` splits it by the starting sublevel that reaches
each key; the package checks membership key by key instead.

``scan_design_reference`` is the alignment search the package used before
the closed-form bracket: a 257-point bias scan, then bisection.
``mp_levels`` and ``mp_alignment_bias`` solve the phase condition and the
alignment root at 40 digits with mpmath, and ``level_error_bound`` and
``bias_error_bound`` state how far the package's float results may lie
from them.
``transcendental_residual`` evaluates the phase condition of a physical
well at a physical energy by ``direct_residual``, a formula of its own, so
the solver's levels are checked against an independent expression.
``logical_qubit_projection`` collapses an m-parity sector of a table onto
its (l-parity, n-parity) pairs, for the parity-logic criterion.

``iter_paths`` yields each branch string with its weight, one path at a
time; ``enumerate_paths`` must equal its fold bit for bit.
``reference_conditional_states`` and ``reference_joint_pm`` are the
slice builder and the summing (l, n) table the analysis used before the
table checked its own support: ``conditional_states`` and ``joint_pm``
must give the same values, bit for bit.
``reference_json`` and ``reference_csv`` are the recursive writer the
package used before its one-pass containers: ``stable_json`` and
``csv_table`` must give the same bytes and the same refusals.
``array_enumeration`` is the numpy path enumeration the package used
before its grouped lists. ``walker_samples`` replays the population
sampler walker by walker: ``below_p`` decides each trial by its own coins
on the same random words as ``cqwsim.oracle._binomial``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpf
from scipy.integrate import quad
from scipy.integrate import simpson as scipy_simpson
from scipy.linalg import eigh_tridiagonal

from cqwsim import (
    BoundState,
    ConditionalState,
    CouplingIntegrals,
    DipoleIntegrals,
    DomainError,
    InfeasibleDesignError,
    NumericError,
    ValidationError,
    WellParams,
    count_levels,
    evaluate_wave,
)
from cqwsim.coupling import ChainWaves
from cqwsim.eigensolver import DESIGN_TOL, _level_energy, _scale_free
from cqwsim.output import format_float


def dict_cascade(n_total, init, branching):
    """Photon-count table by a dynamic program over (sublevel, l, n) keys.

    Each step visits the states in sorted order; H stays (central photon)
    or crosses to L raising n, L stays or crosses to H raising l. Zero
    products are dropped, so the table lists only positive masses. The
    last pair decays with its photon to n from H and to l from L.
    """
    weights = {}
    if init.c_h > 0:
        weights[("H", 0, 0)] = init.c_h * init.c_h
    if init.c_l > 0:
        weights[("L", 0, 0)] = init.c_l * init.c_l
    for _ in range(n_total - 1):
        new = {}
        for key in sorted(weights):
            w = weights[key]
            branch, l, n = key
            if branch == "H":
                moves = ((("H", l, n), w * branching.p_hh),
                         (("L", l, n + 1), w * branching.p_hl))
            else:
                moves = ((("H", l + 1, n), w * branching.p_lh),
                         (("L", l, n), w * branching.p_ll))
            for target, dw in moves:
                if dw != 0.0:
                    new[target] = new.get(target, 0.0) + dw
        weights = new
    m = n_total - 1
    table = {}
    for key in sorted(weights):
        w = weights[key]
        if w == 0.0:
            continue
        branch, l, n = key
        target = (l, m - l - n, n + 1) if branch == "H" else (l + 1, m - l - n, n)
        table[target] = table.get(target, 0.0) + w
    return table


def pascal_cascade(n_total, init):
    """The all-1/2 photon-count table, each entry correctly rounded.

    With every rate 1/2, each path of the n_total - 1 hops carries its
    start's mass times 2^-(n_total - 1). So the ladder walks the
    (sublevel, l, n) states of ``dict_cascade`` on ints: both start masses
    written exactly over one power of two, den, and each hop adds a state's
    int to both its targets. The decay sums the ints that land on one key,
    and one int true division by den * 2^(n_total - 1), correctly rounded,
    gives each entry. Entries that round to 0.0 are dropped.
    """
    masses = {"H": Fraction(init.c_h * init.c_h), "L": Fraction(init.c_l * init.c_l)}
    den = max(mass.denominator for mass in masses.values())  # powers of two
    counts = {(branch, 0, 0): int(mass * den)
              for branch, mass in masses.items() if mass}
    for _ in range(n_total - 1):
        new = {}
        for (branch, l, n), w in counts.items():
            if branch == "H":
                targets = (("H", l, n), ("L", l, n + 1))
            else:
                targets = (("H", l + 1, n), ("L", l, n))
            for target in targets:
                new[target] = new.get(target, 0) + w
        counts = new
    m = n_total - 1
    exact = {}
    for (branch, l, n), w in counts.items():
        target = (l, m - l - n, n + 1) if branch == "H" else (l + 1, m - l - n, n)
        exact[target] = exact.get(target, 0) + w
    den <<= n_total - 1
    table = {key: w / den for key, w in sorted(exact.items())}
    return {key: f for key, f in table.items() if f}


def support_set(n_total):
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


def support_partition(n_total):
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


def _encode(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_encode(item, indent + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # a record is written through its _asdict(), never as a bare array
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_encode(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_json(document):
    """``stable_json`` by one recursive call per value."""
    return _encode(document, 0) + "\n"


def reference_csv(header, rows):
    """``csv_table`` for bool, int and float cells, each cell by ``_encode``."""
    lines = [",".join(header)]
    lines.extend(",".join(_encode(value, 0) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _entries(dist):
    """The table's items, refusing an entry with a count outside [0, n_total].

    Raises NumericError naming the first such key.
    """
    top = dist.n_total
    for key, f in dist.table.items():
        l, m, n = key
        if not (0 <= l <= top and 0 <= m <= top and 0 <= n <= top):
            raise NumericError(f"entry {key} has a count outside [0, {top}]")
        yield key, f


def reference_joint_pm(dist):
    """Joint probability of (l, n), summed over the central count."""
    out = {}
    for (l, _, n), f in _entries(dist):
        out[(l, n)] = out.get((l, n), 0.0) + f
    return out


def _slice_state(n_total, m, slice_f):
    """Classify one fixed-m slice given its nonzero (l, n) masses."""
    for (l, n), f in slice_f.items():
        if not (f > 0.0 and math.isfinite(f)):
            raise NumericError(f"slice m={m} holds mass {f} at {(l, m, n)}")
    s = n_total - m
    k = s // 2
    if not slice_f:
        return ConditionalState(m, s, k, "empty", None, None, 0.0)
    weight = math.fsum(slice_f.values())
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
    alpha = math.sqrt(slice_f.get((k, k + 1), 0.0) / weight)
    beta = math.sqrt(slice_f.get((k + 1, k), 0.0) / weight)
    kind = "entangled-pair" if alpha > 0.0 and beta > 0.0 else "product"
    return ConditionalState(m, s, k, kind, alpha, beta, weight)


def _slices(dist):
    """The nonzero (l, n) masses of each fixed-m slice, by m."""
    slices = [{} for _ in range(dist.n_total + 1)]
    for (l, m, n), f in _entries(dist):
        if f != 0.0:
            slices[m][(l, n)] = f
    return slices


def reference_conditional_states(dist):
    """Every fixed-m slice's state, from the table's full slices, by m."""
    return [
        _slice_state(dist.n_total, m, slice_f)
        for m, slice_f in enumerate(_slices(dist))
    ]


class PathRecord(NamedTuple):
    """One fully specified trajectory through the cascade.

    ``choices`` holds one stay/cross flag per ladder step; the terminal
    emission is forced by the final sublevel, so it carries no choice.
    ``probability`` is the start weight times every branch probability
    along the way, and ``counts`` the resulting (l, m, n).
    """

    start: str
    choices: tuple[bool, ...]
    counts: tuple[int, int, int]
    probability: float


def iter_paths(n_total, init, branching):
    """Yield every positive-probability path: H start first, then by index.

    Bit ``step`` of the path index is the crossing flag of that step,
    least significant bit first.
    """
    starts = []
    if init.c_h > 0:
        starts.append(("H", init.c_h * init.c_h))
    if init.c_l > 0:
        starts.append(("L", init.c_l * init.c_l))
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
                if branch == "H":
                    if cross:
                        w *= branching.p_hl
                        n += 1
                        branch = "L"
                    else:
                        w *= branching.p_hh
                else:
                    if cross:
                        w *= branching.p_lh
                        l += 1
                        branch = "H"
                    else:
                        w *= branching.p_ll
            if w == 0.0:
                continue
            if branch == "H":
                n += 1
            else:
                l += 1
            yield PathRecord(
                start=branch0,
                choices=tuple(choices),
                counts=(l, n_total - l - n, n),
                probability=w,
            )


def array_enumeration(n_total, init, branching):
    """Path enumeration over numpy arrays, the package's former oracle.

    Each start's 2^(N-1) branch strings grow as arrays, doubling at each
    ladder step: entry j becomes entries j (stay) and j + 2^step (cross),
    so entry j is the path whose bit ``step`` is the crossing flag of that
    step. Each entry carries the code l (N + 1) + n of the photons it
    emitted. Zero weights are dropped, ``np.bincount`` adds the rest in
    path order (the L pass starts from the H sums), and keys appear in the
    order of their first path. Returns the (l, m, n) -> probability map.
    """
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
        code = np.concatenate((keys, code[kept]))
        total = np.bincount(code, weights=np.concatenate((sums, w[kept])))
        first = np.full(total.size, code.size)
        np.minimum.at(first, code, np.arange(code.size))
        keys = np.flatnonzero(first < code.size)
        keys = keys[np.argsort(first[keys])]
        sums = total[keys]
    table = {}
    for code, value in zip(keys.tolist(), sums.tolist()):
        l, n = divmod(code, n_total + 1)
        table[(l, n_total - l - n, n)] = value
    return table


def _binary_digits(p):
    """The bits of p in [0, 1) after the binary point, by exact doubling."""
    digits = []
    while p:
        p *= 2.0
        digits.append(p >= 1.0)
        if p >= 1.0:
            p -= 1.0
    return digits


# coin characters to compress() selectors: 1 where the coin is 1, or 0
_COIN_ONE = bytes.maketrans(b"01", b"\x00\x01")
_COIN_ZERO = bytes.maketrans(b"01", b"\x01\x00")


def below_p(rng, trials, p):
    """The trials whose uniform, read one coin at a time, falls below p.

    Trials are decided one by one: each compares its coins with p's bits
    until they differ, a 0 coin against a 1 bit winning. At each bit of p
    the tied trials take their coins, in order, from the bits of
    ``rng.getrandbits`` words of at most 2^20 bits, least significant bit
    first. Past p's last set bit the tied trials lose.
    """
    if not p > 0.0:
        return []
    if p >= 1.0:
        return list(trials)
    won = []
    tied = list(trials)
    for bit in _binary_digits(p):
        if not tied:
            break
        coins = "".join(
            format(rng.getrandbits(size), f"0{size}b")[::-1]
            for size in _chunks(len(tied), 1 << 20)
        ).encode()
        if bit:
            won.extend(itertools.compress(tied, coins.translate(_COIN_ZERO)))
            tied = list(itertools.compress(tied, coins.translate(_COIN_ONE)))
        else:
            tied = list(itertools.compress(tied, coins.translate(_COIN_ZERO)))
    return won


def _chunks(total, chunk):
    """Sizes that split ``total`` into full chunks, then the remainder."""
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def walker_samples(n_total, init, branching, count, seed):
    """Monte Carlo walks decided walker by walker, on the sampler's bits.

    The walkers are numbered; each holds its sublevel and its photon
    counts. The start draw and then, at each step, each occupied state in
    sorted order pass their walkers, in number order, through
    ``below_p`` on one ``random.Random(seed)``. Returns the frequency map,
    keys by ascending code l (N + 1) + n.
    """
    rng = random.Random(seed)
    high = set(below_p(rng, range(count), init.c_h * init.c_h))
    walkers = [["H" if i in high else "L", 0, 0] for i in range(count)]
    for _ in range(n_total - 1):
        states = {}
        for i, (branch, l, n) in enumerate(walkers):
            states.setdefault((branch, l, n), []).append(i)
        for (branch, _, _), members in sorted(states.items()):
            p = branching.p_hl if branch == "H" else branching.p_lh
            for i in below_p(rng, members, p):
                walker = walkers[i]
                if branch == "H":
                    walker[0], walker[2] = "L", walker[2] + 1
                else:
                    walker[0], walker[1] = "H", walker[1] + 1
    hits = {}
    for branch, l, n in walkers:
        # the last photon: to n from H, to l from L
        l, n = (l, n + 1) if branch == "H" else (l + 1, n)
        key = (l, n_total - l - n, n)
        hits[key] = hits.get(key, 0) + 1
    order = sorted(hits, key=lambda key: key[0] * (n_total + 1) + key[2])
    return {key: hits[key] / count for key in order}


def single_well_potential(v1, v2, b, d, x):
    return np.select(
        [x < 0.0, x <= d],
        [np.full_like(x, v1), np.full_like(x, v2)],
        default=v1 - b,
    )


def pair_potential(v1, v2, b, d, period, x):
    return np.select(
        [
            x < 0.0,
            x <= d,
            x < period,
            x <= period + d,
        ],
        [
            np.full_like(x, v1),
            np.full_like(x, v2),
            np.full_like(x, v1 - b),
            np.full_like(x, v2 - b),
        ],
        default=v1 - 2.0 * b,
    )


def hard_wall_with_penetration(n, v1, d):
    """Level n of a deep symmetric well, hard-wall limit plus penetration.

    For the unbiased well (floor 0, both barriers at ``v1``, width ``d``)
    the phase condition gives, to leading order in ``1/sqrt(v1)``,

        E_n = (n + 1)^2 pi^2 / (d + 2 / sqrt(v1))^2,

    the hard-wall energy of a well widened by one decay length
    ``1/sqrt(v1)`` on each side. This is the symmetric-well asymptote as
    ``v1 -> inf``; it sits below the bare hard-wall value by about
    ``4 / (d sqrt(v1))`` relative. Its own relative error is
    ``-(2/3) E_n / (d v1^1.5)``, O(v1^-1.5) at fixed n: against the exact
    even/odd roots of the symmetric well, 6.2e-6 (n = 0) and 2.5e-5
    (n = 1) at ``v1 = 1e4, d = 1``.
    """
    return (n + 1) ** 2 * math.pi**2 / (d + 2.0 / math.sqrt(v1)) ** 2


def _shoot_ends(v, h, energies):
    """Numerov endpoint values for a batch of trial energies.

    Integrates y'' = (v - e) y left to right from a decayed start; a bound
    energy makes the endpoint cross zero. Renormalizes periodically
    against overflow, which leaves the endpoint sign intact.
    """
    e = np.asarray(energies, dtype=float)
    c = h * h / 12.0
    f = e[:, None] - v[None, :]
    y0 = np.zeros_like(e)
    y1 = np.full_like(e, 1e-8)
    for k in range(1, len(v) - 1):
        y2 = (
            2.0 * y1 * (1.0 - 5.0 * c * f[:, k]) - y0 * (1.0 + c * f[:, k - 1])
        ) / (1.0 + c * f[:, k + 1])
        y0, y1 = y1, y2
        if k % 100 == 0:
            big = np.abs(y1) > 1e80
            if np.any(big):
                y0[big] *= 1e-80
                y1[big] *= 1e-80
    return y1


def numerov_levels(v1, v2, b, d, n_points=12001, n_scan=400, frac=0.75):
    """Low-lying bound energies of the single biased well by shooting.

    Scans the bottom ``frac`` of the bound window only: levels close to
    the barrier top decay too slowly for a fixed-span grid, so compare
    just the deep levels against this oracle.
    """
    window_lo = v2
    width = (v1 - b) - v2
    e_top = window_lo + frac * width
    pad_left = 8.0 / np.sqrt(v1 - e_top)
    pad_right = 8.0 / np.sqrt((v1 - b) - e_top)
    x = np.linspace(-pad_left, d + pad_right, n_points)
    v = single_well_potential(v1, v2, b, d, x)
    h = x[1] - x[0]
    margin = 1e-6 * width
    grid = np.linspace(window_lo + margin, e_top, n_scan)
    ends = _shoot_ends(v, h, grid)
    lo_list = []
    hi_list = []
    f_lo_list = []
    for i in range(n_scan - 1):
        if ends[i] * ends[i + 1] < 0.0:
            lo_list.append(grid[i])
            hi_list.append(grid[i + 1])
            f_lo_list.append(ends[i])
    if not lo_list:
        return []
    # Illinois (modified regula falsi) on every bracket at once: b is the
    # newest point and a the opposite-signed end; an end kept twice in a
    # row has its endpoint value halved, so both ends keep moving. Stops
    # once every step is below 1e-11 relative, far inside the 1e-3 checks.
    a = np.array(lo_list)
    b = np.array(hi_list)
    f_a = np.array(f_lo_list)
    f_b = _shoot_ends(v, h, b)
    for _ in range(100):
        c = np.where(f_b == 0.0, b, b - f_b * (b - a) / (f_b - f_a))
        f_c = _shoot_ends(v, h, c)
        flip = f_c * f_b < 0.0
        a = np.where(flip, b, a)
        f_a = np.where(flip, f_b, 0.5 * f_a)
        step = np.abs(c - b)
        b, f_b = c, f_c
        if np.all(step <= 1e-11 * np.abs(b)):
            break
    return list(b)


def fd_pair_levels(v1, v2, b, d, period, n_levels=6, n_points=20001):
    """Lowest eigenvalues of the two-well potential by dense-grid FD."""
    pad_left = 6.0 / np.sqrt(v1 - v2)
    floor_right = v2 - b
    pad_right = 6.0 / np.sqrt(max(v1 - 2.0 * b - floor_right, 1.0))
    x = np.linspace(-pad_left - 1.0, period + d + pad_right + 1.0, n_points)
    v = pair_potential(v1, v2, b, d, period, x)
    h = x[1] - x[0]
    diag = 2.0 / (h * h) + v[1:-1]
    off = np.full(len(diag) - 1, -1.0 / (h * h))
    vals = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1),
        eigvals_only=True,
    )
    return vals


def fd_pair_splitting(v1, v2, b, d, period, e_align, n_points=20001):
    """Splitting of the FD eigenvalue pair bracketing the aligned energy."""
    vals = fd_pair_levels(v1, v2, b, d, period, n_points=n_points)
    order = np.argsort(np.abs(vals - e_align))
    pair = np.sort(vals[order[:2]])
    return float(pair[1] - pair[0])


# Decay lengths of the slower tail that ``quad_product`` keeps past the
# outermost region edge.
QUAD_TAIL_LENGTHS = 40.0
# Rounding allowance of the closed form, in units of 2^-53 times the integral
# of the product of the two wave envelopes. The integrated magnitudes of the
# closed form's terms c e^(z (x - r)) add up to about that integral (exactly
# for moment 0). Each term takes fewer than 32 roundings of relative size
# 2^-53 (products, one exp, an 18-term Horner sum, the piece assembly), and
# summing the terms of up to 7 pieces adds fewer than 32 more.
CLOSED_FORM_ROUNDINGS = 64


def _wave_at(state: BoundState, x: float, offset: float) -> tuple[float, float]:
    """The wave at x and its envelope, which bounds it and is smooth per region."""
    w = state.wave
    t = x - offset
    if t < 0:
        value = w.amp_left * math.exp(w.nu * t)
        return value, abs(value)
    if t > w.width:
        value = w.amp_right * math.exp(-w.delta * (t - w.width))
        return value, abs(value)
    value = w.amp_cos * math.cos(w.kappa * t) + w.amp_sin * math.sin(w.kappa * t)
    return value, math.hypot(w.amp_cos, w.amp_sin)


def quad_product(
    f, f_offset, g, g_offset, lo=-math.inf, hi=math.inf, moment=0,
    weight=None, breaks=(),
):
    """Adaptive quadrature of f g x^moment weight over [lo, hi].

    The waves are evaluated point by point from their coefficients.
    ``weight`` is a scalar function, None for 1, that is smooth between
    the waves' region edges and the extra ``breaks`` (a potential and its
    steps). The interval is cut at all of those, and an infinite end at
    ``QUAD_TAIL_LENGTHS`` decay lengths of the slower tail beyond the
    outermost cut; the product drops by e^-80 or more over that span, so
    the cut-off tail is negligible.

    Returns (value, bound). The bound on |closed form - value| adds
    quadpack's error estimates, which include its own rounding, to
    ``CLOSED_FORM_ROUNDINGS`` times 2^-53 times the integral of the
    envelope product.
    """
    edges = sorted(
        {f_offset, f_offset + f.wave.width, g_offset, g_offset + g.wave.width, *breaks}
    )
    if lo == -math.inf:
        lo = edges[0] - QUAD_TAIL_LENGTHS / min(f.wave.nu, g.wave.nu)
    if hi == math.inf:
        hi = edges[-1] + QUAD_TAIL_LENGTHS / min(f.wave.delta, g.wave.delta)
    cuts = [lo, *(e for e in edges if lo < e < hi), hi]

    def factor(x):
        return (1.0 if weight is None else weight(x)) * x**moment

    def product(x):
        return _wave_at(f, x, f_offset)[0] * _wave_at(g, x, g_offset)[0] * factor(x)

    def envelope(x):
        size = _wave_at(f, x, f_offset)[1] * _wave_at(g, x, g_offset)[1]
        return size * abs(factor(x))

    value = error = scale = 0.0
    for a, b in zip(cuts, cuts[1:]):
        size = quad(envelope, a, b, epsabs=1e-300, epsrel=1e-8, limit=200)[0]
        # quadpack's error estimate has a rounding floor of 50 eps int |f g|,
        # at most 100 * 2^-53 * size; asking for less only warns
        part, part_error = quad(
            product, a, b, epsabs=128 * 2.0**-53 * size, epsrel=1e-12, limit=200
        )
        value += part
        error += part_error
        scale += size
    return value, error + CLOSED_FORM_ROUNDINGS * 2.0**-53 * scale


def composite_grid(params, states, n_wells=1, n_points=10_000, pad_lengths=8.0):
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


def sample_wavefunction(state, grid):
    """Sample the wavefunction on ``grid`` and verify its normalization.

    The grid must be ascending, reach at least five decay lengths into each
    barrier, and hold at least 100 points in each of the three regions.
    Simpson quadrature of |psi|^2 must land within 1e-6 of one.
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
    norm = float(scipy_simpson(psi * psi, x=x))
    if abs(norm - 1.0) > 1e-6:
        raise NumericError(
            f"sampled normalization off by {norm - 1.0}: grid of {x.size} points "
            f"on [{x[0]}, {x[-1]}]"
        )
    return x, psi


def count_nodes(psi):
    """Strict sign changes of a sampled wavefunction."""
    s = np.sign(psi)
    s = s[s != 0]
    return int(np.count_nonzero(s[:-1] * s[1:] < 0))


def sampled_coupling_integrals(ground, excited, params, n_points=10_000):
    """Coupling elements by Simpson's rule on a uniform two-well grid.

    The potential steps fall between grid points, so the error shrinks
    only as O(1 / n_points).
    """
    period = params.period
    x = composite_grid(params, [ground, excited], n_wells=2, n_points=n_points)
    fa = evaluate_wave(ground, x, 0.0)
    fb = evaluate_wave(excited, x, period)
    v1, v2, b, d = params.v1, params.v2, params.b, params.d
    v_pair = pair_potential(v1, v2, b, d, period, x)
    v_a = single_well_potential(v1, v2, b, d, x)
    v_b = single_well_potential(v1 - b, v2 - b, b, d, x - period)
    return CouplingIntegrals(
        overlap=scipy_simpson(fa * fb, x=x),
        k_ba=scipy_simpson(fb * (v_pair - v_a) * fa, x=x),
        k_ab=scipy_simpson(fa * (v_pair - v_b) * fb, x=x),
        d_aa=scipy_simpson(fa * fa * (v_pair - v_a), x=x),
        d_bb=scipy_simpson(fb * fb * (v_pair - v_b), x=x),
    )


def sampled_dipole_integrals(
    waves: ChainWaves, params: WellParams
) -> DipoleIntegrals:
    """Simpson's rule for the four position elements on a sampled chain.

    The grid must cover the three-well span with at least five decay
    lengths of tail on each side; a mismatched grid is a ValidationError.
    """
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
    return DipoleIntegrals(
        intra=scipy_simpson(waves.ground_1 * x * waves.excited_1, x=x),
        adjacent_gg=scipy_simpson(waves.ground_1 * x * waves.ground_0, x=x),
        far=scipy_simpson(waves.excited_2 * x * waves.ground_0, x=x),
        adjacent_ee=scipy_simpson(waves.excited_2 * x * waves.excited_1, x=x),
    )


def spacing_residual(v1, v2, d, bias):
    """h(b) = (E1 - E0) - b, or None where the well holds fewer than two levels.

    The two levels are those of the scale-free well, so h is the scale-free
    one divided by d^2.
    """
    params = WellParams(v1, v2, bias, d)
    if count_levels(params) < 2:
        return None
    depth, scaled = _scale_free(params)
    e0 = _level_energy(depth, scaled, 0)
    return (_level_energy(depth, scaled, 1) - e0 - scaled) / (d * d)


def scan_design_reference(v1, v2, d):
    """Aligning bias by a scan of 257 biases, then bisection.

    Scans h over (1e-6, (v1 - v2) - 1e-6), takes the first sign change
    between two biases that both hold two or more levels, and bisects it
    until the bracket is below DESIGN_TOL / 10 in units of the energy scale
    1/d^2. Raises InfeasibleDesignError when no pair of neighbours brackets
    a root or the root does not leave exactly two levels. A root on a
    two-level interval narrower than the scan step goes unseen.
    """
    biases = np.linspace(1e-6, (v1 - v2) - 1e-6, 257).tolist()
    residuals = [spacing_residual(v1, v2, d, b) for b in biases]
    for b0, b1, r0, r1 in zip(biases, biases[1:], residuals, residuals[1:]):
        if r0 is not None and r1 is not None and (r0 == 0.0 or r0 * r1 < 0):
            while b1 - b0 >= DESIGN_TOL / 10.0 / (d * d) and r0 != 0.0:
                mid = 0.5 * (b0 + b1)
                r_mid = spacing_residual(v1, v2, d, mid)
                if r0 * r_mid > 0:
                    b0, r0 = mid, r_mid
                else:
                    b1 = mid
            bias = b0 if r0 == 0.0 else 0.5 * (b0 + b1)
            if count_levels(WellParams(v1, v2, bias, d)) != 2:
                raise InfeasibleDesignError(f"alignment root {bias} does not hold two levels")
            return bias
    raise InfeasibleDesignError(f"no sign change of h on the scan for v1={v1}, v2={v2}, d={d}")


# 40 digits leave the references' own error near 1e-40, far below the float
# results' bounds
_MP_DIGITS = 40


def mp_levels(depth, bias, count):
    """The ``count`` lowest levels of the well (depth, 0, bias, 1) at 40 digits.

    Level n is the root of kappa - atan2(nu, kappa) - atan2(delta, kappa)
    - n pi on its hard-wall bracket (n pi)^2 < E < ((n + 1) pi)^2, clipped
    to the window top depth - bias, found by mpmath's bracketing Anderson-
    Bjorck solver. ``depth`` and ``bias`` are taken exactly, as the floats
    they are.
    """
    with mp.workdps(_MP_DIGITS):
        depth, top = mpf(depth), mpf(depth) - mpf(bias)
        levels = []
        for n in range(count):
            def phase(energy, n=n):
                kappa = mp.sqrt(energy)
                return (kappa - mp.atan2(mp.sqrt(depth - energy), kappa)
                        - mp.atan2(mp.sqrt(top - energy), kappa) - n * mp.pi)

            bracket = ((n * mp.pi) ** 2, min(((n + 1) * mp.pi) ** 2, top))
            levels.append(mp.findroot(phase, bracket, solver="anderson", maxsteps=200))
        return levels


def mp_spacing(depth, bias, b2):
    """h(b) = (E1 - E0) - b of (depth, 0, b, 1) at 40 digits; from ``b2``, where
    the second level leaves the window, E1 is the window top."""
    with mp.workdps(_MP_DIGITS):
        bias = mpf(bias)
        if bias < b2:
            e0, e1 = mp_levels(depth, bias, 2)
        else:
            e0, e1 = mp_levels(depth, bias, 1)[0], mpf(depth) - bias
        return e1 - e0 - bias


def mp_alignment_bias(depth):
    """The root of h on [1e-6, b2] for the well (depth, 0, b, 1), at 40 digits.

    b2 solves sqrt(V - b) - atan2(sqrt(b), sqrt(V - b)) = pi, where the
    second level leaves the window. Returns (bias, slope of h there), the
    slope by a central difference of step 1e-15.
    """
    with mp.workdps(_MP_DIGITS):
        depth = mpf(depth)

        def top_phase(bias):
            kappa = mp.sqrt(depth - bias)
            return kappa - mp.atan2(mp.sqrt(bias), kappa) - mp.pi

        lo = mpf("1e-6")
        b2 = mp.findroot(top_phase, (lo, depth), solver="anderson")
        root = mp.findroot(lambda b: mp_spacing(depth, b, b2), (lo, b2), solver="anderson")
        step = mpf("1e-15")
        rise = mp_spacing(depth, root + step, b2) - mp_spacing(depth, root - step, b2)
        return root, rise / (2 * step)


_U = 2.0**-53  # the unit roundoff


def level_error_bound(energy):
    """Largest distance of a float level ``energy`` of a scale-free well from the exact one.

    The package evaluates the phase r(E) = kappa - atan2(nu, kappa) -
    atan2(delta, kappa) - n pi with kappa = sqrt(E), nu = sqrt(V - E) and
    delta = sqrt(T - E), T = fl(V - B). Each operation rounds once (u =
    2^-53; atan2 within 1 ulp), so to first order the computed residual is
    off by at most
      kappa (1 + nu/V + delta/T) u      from kappa (dr/dkappa is that factor),
      1.5 u kappa nu / V                from nu (one subtraction, one sqrt),
      u kappa / (2 delta) + 1.5 u kappa delta / T
                                        from delta (T - E is off by u T),
      4 u + u (kappa + pi/2) + u (kappa + pi) + 2 u kappa
                                        from both atan2, both subtractions
                                        and n pi < kappa.
    The slope r' = (1 + 1/nu + 1/delta) / (2 kappa) is at least each of
    1/(2 kappa), 1/(2 kappa nu) and 1/(2 kappa delta); dividing each term
    by the one that fits gives an energy error of at most
    u (2 + 5 + 5 + 1 + 8) E + u (8 + 3 pi) kappa < u (21 E + 18 kappa).
    The solver stops at a zero residual, at adjacent floats across a sign
    change, or where its Newton step is below half an ulp, so it adds at
    most one ulp.
    """
    return math.ulp(energy) + _U * (21.0 * energy + 18.0 * math.sqrt(energy))


def bias_error_bound(bias, e0, e1):
    """Largest distance of a float alignment bias from the exact root.

    h = (E1 - E0) - b is computed from the two float levels, each off by at
    most ``level_error_bound``, and two subtractions that round by at most u
    (E1 - E0) and u b (E1 - E0 = b at the root). Where the slope h' = P0 -
    P1 - 1 is at most -1 (the excited level holds more weight in the right
    barrier, P1 >= P0), an error in h moves the root by no more than itself;
    the solver's stop adds one ulp of the bias, as for the levels.
    """
    return (math.ulp(bias) + level_error_bound(e0) + level_error_bound(e1)
            + _U * (e1 - e0 + bias))


def direct_residual(v1, b, d, energy, v2=0.0):
    """Total phase kappa d - arctan(nu/kappa) - arctan(delta/kappa) at ``energy``."""
    k = math.sqrt(energy - v2)
    nu = math.sqrt(v1 - energy)
    delta = math.sqrt(v1 - b - energy)
    return k * d - math.atan(nu / k) - math.atan(delta / k)


def transcendental_residual(params, energy):
    """Residual of the phase condition at ``energy`` and the nearest branch.

    Returns (residual, branch): the total phase minus n pi for the branch n
    whose n pi lies nearest it, branch indices clamped at 0. Raises
    DomainError outside the open window (v2, v1 - b).
    """
    lo, hi = params.v2, params.v1 - params.b
    if not (lo < energy < hi):
        raise DomainError(f"energy {energy} outside the bound-state window ({lo}, {hi})")
    total = direct_residual(params.v1, params.b, params.d, energy, params.v2)
    branch = max(int(round(total / math.pi)), 0)
    return total - branch * math.pi, branch


class LogicalProjection(NamedTuple):
    """Mass of the (l-parity, n-parity) pairs within one m-parity sector."""

    n_total: int
    m_parity: int
    support: dict[tuple[int, int], float]
    allowed: frozenset[tuple[int, int]]
    confined: bool


def logical_qubit_projection(dist, m_parity):
    """Collapse one m-parity sector onto (l-parity, n-parity) pairs.

    The parity law confines each sector to one diagonal of the 2x2 parity
    grid: equal side parities when parity(m) matches parity(n_total),
    opposite ones otherwise.
    """
    if m_parity not in (0, 1):
        raise DomainError(f"m parity must be 0 or 1, got {m_parity}")
    support: dict[tuple[int, int], float] = {}
    for (l, m, n), f in dist.table.items():
        if (m & 1) != m_parity:
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
