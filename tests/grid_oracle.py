"""Brute-force grid oracle for the delivery-time searches.

Evaluates f_del at every k = 1..k_max and takes the first argmax, or the
first k that reaches a target fidelity, the way translink searched before
it located the optimum in closed form and bisected for the target. The
grid is the library's own evaluator, delivery_curve, so the searches must
match it bit for bit; tests/mp_oracle.py checks that evaluator's digits.
"""

import math
from dataclasses import replace

import numpy as np

from translink import delivery_curve, resolve


def grid_k_max(config, k_max=None):
    """The library's search grid length: by default ten coherence times, and
    given or not, capped at the memory lifetime."""
    t_rep = config.transducer.t_rep_us
    if k_max is None:
        k_max = math.ceil(10.0 * config.qubit.t_coh_us / t_rep)
    if config.memory is not None:
        k_max = min(k_max, math.floor(config.memory.lifetime_us / t_rep))
    return k_max


def grid_f_del(config, k_max, p_her=None):
    """(t_del grid, f_del grid) for k = 1..k_max.

    p_her, when given, replaces the formula's herald probability, as a
    p_her reference does in the library.
    """
    if p_her is not None:
        config = replace(config, p_her_reference=p_her)
    curve = delivery_curve(resolve(config), k_max)
    return curve.t_del_us, curve.f_del


def grid_optimal_delivery_time(config, k_max=None, p_her=None):
    """(t_del, f_del) at the first maximum of f_del on the full grid."""
    t_grid, f_del = grid_f_del(config, grid_k_max(config, k_max), p_her)
    best = int(np.argmax(f_del))
    return float(t_grid[best]), float(f_del[best])


def grid_min_time_to_fidelity(config, target, k_max=None, p_her=None):
    """(t_del, f_max): the first grid t_del with f_del >= target, or None when
    no grid point reaches it, and the largest f_del on the grid."""
    t_grid, f_del = grid_f_del(config, grid_k_max(config, k_max), p_her)
    hits = np.flatnonzero(f_del >= target)
    return (float(t_grid[hits[0]]) if hits.size else None), float(f_del.max())
