"""Independent numerical oracles used to cross-check the solvers.

Two oracles rediscover spectra from the raw potential on a dense grid,
sharing no code with the package solvers: a Numerov shooting integrator
for single-well levels and a finite-difference tridiagonal
diagonalization for the two-well splitting. A closed-form deep-well
asymptote gives the reference for the hard-wall limit. ``dict_cascade``
is the photon-count recursion written as a dict over (sublevel, l, n)
states, the reference the array cascade must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal


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
