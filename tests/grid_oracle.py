"""Brute-force grid oracle for the optimal delivery time.

Evaluates f_del at every k = 1..k_max and takes the first argmax, the way
translink searched before it located the optimum in closed form. The grid
arithmetic is written out here, in the same order as the library's, so the
closed form must match it bit for bit.
"""

import math

import numpy as np

from translink import analyze_protocol, heralded_fidelity


def grid_k_max(config, k_max=None):
    """The library's search grid length: by default ten coherence times, and
    given or not, capped at the memory lifetime."""
    t_rep = config.transducer.t_rep_us
    if k_max is None:
        k_max = math.ceil(10.0 * config.qubit.t_coh_us / t_rep)
    if config.memory is not None:
        k_max = min(k_max, math.floor(config.memory.lifetime_us / t_rep))
    return k_max


def grid_f_del(config, k_max):
    """(t_del grid, f_del grid) for k = 1..k_max."""
    analytics = analyze_protocol(config.transducer, config.protocol, config.memory)
    f_her = heralded_fidelity(analytics, config.policy.fidelity_model)
    t_rep = config.transducer.t_rep_us
    t_coh = config.qubit.t_coh_us
    q = 1.0 - (1.0 - analytics.p_her) ** config.policy.n_parallel
    d = math.exp(-t_rep / t_coh) if not math.isinf(t_coh) else 1.0
    r = 1.0 - q
    k = np.arange(1, k_max + 1, dtype=float)
    if abs(r - d) < 1e-9:
        m = 0.5 * (r + d)
        core = k * np.power(m, k - 1, dtype=float)
    else:
        core = (np.power(r, k, dtype=float) - np.power(d, k, dtype=float)) / (r - d)
    return k * t_rep, 0.5 + max(f_her - 0.5, 0.0) * (q * core)


def grid_optimal_delivery_time(config, k_max=None):
    """(t_del, f_del) at the first maximum of f_del on the full grid."""
    t_grid, f_del = grid_f_del(config, grid_k_max(config, k_max))
    best = int(np.argmax(f_del))
    return float(t_grid[best]), float(f_del[best])
