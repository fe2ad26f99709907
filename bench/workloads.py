"""The benchmark's workloads: one scenario document per (workload, seed).

Pure Python on purpose: the set-up probe builds its config before it starts
the clock on ``import ymcone``, so nothing here may import numpy.

What a seed varies, per workload (the amount of work never depends on it):

- ``flat-wave``: the plane wave's propagation direction (a uniform unit
  vector) and the scenario ``seed`` field.
- ``schwarzschild-coulomb``: the Coulomb charge in [0.9, 1.1] and the
  vertex's azimuth phi in [0, 2 pi); the vertex stays on the equator at
  r = 10, so the geometry of the cone is the same for every seed.
- ``su2-lattice``: the crossed-stream amplitude in [0.09, 0.11], the
  Pachpatte constant ``c`` in [0.05, 0.15] and the scenario ``seed`` field.
"""

from __future__ import annotations

import math
import random

FLAT_WAVE = "flat-wave"
SCHWARZSCHILD_COULOMB = "schwarzschild-coulomb"
SU2_LATTICE = "su2-lattice"

NAMES = (FLAT_WAVE, SCHWARZSCHILD_COULOMB, SU2_LATTICE)

#: which program layers each workload must reach (checked in traced runs)
LAYERS = {
    FLAT_WAVE: ("runner", "nullcone", "sphere", "geometry", "parametrix",
                "energy"),
    SCHWARZSCHILD_COULOMB: ("runner", "nullcone", "sphere", "geometry",
                            "parametrix", "liegauge", "energy"),
    SU2_LATTICE: ("runner", "liegauge", "evolution", "bounds"),
}

SCHWARZSCHILD_MASS = 1.0
SCHWARZSCHILD_RADIUS = 10.0


def _unit_vector(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rho = math.sqrt(1.0 - z * z)
    return [rho * math.cos(phi), rho * math.sin(phi), z]


def scenario(workload, seed):
    """The scenario document (as ``ymcone run`` reads it) for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == FLAT_WAVE:
        return {
            "chart": "minkowski",
            "algebra": "u1",
            "field": {"profile": "plane_wave",
                      "params": {"omega": 1.0,
                                 "direction": _unit_vector(rng)}},
            "vertex": [0.0, 0.0, 0.0, 0.0],
            "cone": {"n_theta": 8, "n_phi": 16, "ds": 4e-3, "s_max": 1.5},
            "experiments": ["cone_geometry", "transport", "parametrix",
                            "energy_balance"],
            "seed": seed,
        }
    if workload == SCHWARZSCHILD_COULOMB:
        return {
            "chart": {"name": "schwarzschild",
                      "params": {"mass": SCHWARZSCHILD_MASS}},
            "algebra": "u1",
            "field": {"profile": "coulomb",
                      "params": {"charge": rng.uniform(0.9, 1.1)}},
            "vertex": [0.0, SCHWARZSCHILD_RADIUS, math.pi / 2,
                       rng.uniform(0.0, 2.0 * math.pi)],
            "cone": {"n_theta": 8, "n_phi": 16, "ds": 0.016, "s_max": 1.0},
            "experiments": ["cone_geometry", "parametrix", "energy_balance"],
            "seed": seed,
        }
    if workload == SU2_LATTICE:
        return {
            "chart": "minkowski",
            "algebra": "su2",
            "evolution": {"n": 32, "length": 1.0, "dt_factor": 0.05,
                          "crossings": 3.0,
                          "amplitude": rng.uniform(0.09, 0.11)},
            "bounds": {"c": rng.uniform(0.05, 0.15)},
            "experiments": ["evolution", "bounds"],
            "seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


def builds_cone(workload):
    return workload != SU2_LATTICE
