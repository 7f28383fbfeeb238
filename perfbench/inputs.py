"""Workload table and seeded inputs of the thermolim benchmark.

Standard library only: the orchestrator imports this module before any
numerical package is loaded.  Each workload is a harness config that
``ScenarioConfig.from_mapping`` accepts; the seed varies only inputs
that leave the work unchanged (alpha, g and N stay fixed, so the Fock
cutoff and every work counter are the same for every seed).
"""

from __future__ import annotations

import math
import random

# The cat angle is drawn from a fixed ladder of levels so that every seed
# lands on an input whose reference values are frozen in references.json.
# The Wigner grid must cover the branch circle of radius
# |N g / omega + alpha e^{i phi}|, so its size, and the work, follows
# cos(phi): from pi/4 to pi/2 the grid shrinks by a quarter.  The
# wigner-washout band is the one around pi/2 in which the grid stays
# 375 x 375 points.
PHI_LEVELS = 9
PHI_BANDS = {
    "cat-exact": (math.pi / 4, math.pi / 2),
    "convergence-cat": (math.pi / 4, math.pi / 2),
    "wigner-washout": (math.pi / 2 - 0.0025, math.pi / 2 + 0.0065),
}

# In dyson-scaling on vacuum input the splitting is a pure prefactor:
# first-order amplitudes scale as delta, second-order ones as delta**2,
# and the quadrature work does not depend on it.  References are frozen
# at DELTA_REF and rescaled.
DELTA_RANGE = (0.01, 0.03)
DELTA_REF = 0.02
SWEEP_N = (2, 4, 8, 16)

WORKLOADS: dict[str, dict] = {
    # exact product-space propagation, the referee (evolver)
    "cat-exact": {"study": "cat", "n_atoms": 16},
    # cat-input first-order Dyson path: one dense displacement matrix per node
    "convergence-cat": {"study": "convergence", "n_atoms": 8, "delta": 0.02},
    # vacuum-input Dyson quadrature over the acceptance sweep, two threads
    "dyson-sweep": {"study": "dyson-scaling", "delta": DELTA_REF, "g": 0.3,
                    "t_max": math.pi, "n_steps": 2, "sweep_axis": "n_atoms",
                    "sweep_values": list(SWEEP_N), "workers": 2},
    # Wigner evaluation, fringe fits, time averaging and a large CSV
    "wigner-washout": {"study": "wigner", "n_atoms": 12, "grid_spacing": 0.05},
}


def phi_level(workload: str, k: int) -> float:
    lo, hi = PHI_BANDS[workload]
    return lo + (hi - lo) * k / (PHI_LEVELS - 1)


def draw(workload: str, seed: int) -> tuple[dict, dict]:
    """Return the harness config for ``workload`` at ``seed`` and the
    drawn inputs.  The same pair always gives the same config."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    config = dict(WORKLOADS[workload])
    if workload in PHI_BANDS:
        k = rng.randrange(PHI_LEVELS)
        config["phi"] = phi_level(workload, k)
        drawn = {"phi_level": k, "phi": config["phi"]}
    else:
        config["delta"] = rng.uniform(*DELTA_RANGE)
        values = list(SWEEP_N)
        rng.shuffle(values)
        config["sweep_values"] = values
        drawn = {"delta": config["delta"], "sweep_values": values}
    return config, drawn
