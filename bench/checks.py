"""Correctness checks on what ``runner.emit`` wrote, per workload.

Every check compares the program's output with a closed form computed
here, with a second route, or with a property the method must have; none
compares with a stored copy of an earlier output.  The checks read plain
data (the parsed ``report.json`` and CSV rows), so the self-test can feed
them synthetic outputs.  ``check_targets`` is the one check that calls into
the program: it recomputes the reconstruction target in closed form and
compares it with ``parametrix.representation_target``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import workloads

# tolerances; "measured" figures are from the README's reference runs
FLAT_AREA_TOL = 1e-9            # |area / 4 pi s^2 - 1|, measured 4e-15
FLAT_EXPANSION_TOL = 1e-9       # |s trchi / 2 - 1|, measured 3e-14
FLAT_TRANSPORT_TOL = 1e-12      # |psi - seed|, measured 2e-14
FLAT_RECONSTRUCTION_TOL = 1e-12  # roundoff floor, measured 7e-16
CURVED_RECONSTRUCTION_TOL = 2e-2  # the runner's own tolerance
ENERGY_TOL = 1e-3               # |E1 - E0 + flux + bulk| / E0, measured
#                                 1.1e-5 flat, 1.0e-4 Schwarzschild
KILLING_BULK_TOL = 1e-10        # |bulk| / E0 where d/dt is Killing
AREA_LAW_WINDOW = 0.3           # s >= this for the vacuum s^4 law
AREA_LAW_EXPONENT_TOL = 0.3
AREA_LAW_COEF_TOL = 1e-2
LATTICE_DRIFT_TOL = 1e-6
LATTICE_GROWTH_MAX = 10.0
RICCATI_TOL = 1e-4              # |t_blowup - 1| for u' = u^2, u(0) = 1
PICARD_TOL = 1e-6
TARGET_TOL = 1e-12
ARITHMETIC_TOL = 1e-12


def load_outputs(out_dir):
    """report.json plus every CSV, as {"report": dict, "csv": {name: rows}}."""
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        raw = fh.read()
    tables = {}
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".csv"):
            with open(os.path.join(out_dir, entry), newline="") as fh:
                tables[entry[:-4]] = list(csv.reader(fh))
    return {"report": json.loads(raw), "raw": raw, "csv": tables}


def failed_experiments(outputs):
    """Experiments that raised or that the program itself marks failed."""
    report = outputs["report"]
    return sorted(name for name, ok in report["passed"].items()
                  if not ok or "error" in report["metrics"].get(name, {}))


def _table(outputs, name):
    """Numeric body of a CSV (header dropped) as a float array."""
    rows = outputs["csv"][name]
    return np.array([[float(v) for v in row] for row in rows[1:]])


def _over(label, value, limit):
    """A problem string when value exceeds limit (NaN always fails)."""
    if not value <= limit:
        return [f"{label} = {value:.3e} exceeds {limit:.1e}"]
    return []


# ---------------------------------------------------------------------------
# per-experiment checks
# ---------------------------------------------------------------------------

def _energy(outputs, killing_exact):
    m = outputs["report"]["metrics"]["energy_balance"]
    e0 = m["E_start"]
    out = []
    if not (e0 > 0.0 and m["E_end"] > 0.0 and m["flux"] >= 0.0):
        out.append(f"energies and flux must be positive: {m}")
        return out
    # the residual is the sum of the reported terms (second route)
    again = m["E_end"] - e0 + m["flux"] + m["bulk"]
    out += _over("energy residual arithmetic",
                 abs(again - m["residual"]) / e0, ARITHMETIC_TOL)
    out += _over("energy identity residual", abs(again) / e0, ENERGY_TOL)
    # d/dt is Killing on both static charts, so the bulk term vanishes
    if killing_exact:
        if m["bulk"] != 0.0:
            out.append(f"flat bulk term is {m['bulk']!r}, not exactly 0")
    else:
        out += _over("Killing bulk term", abs(m["bulk"]) / e0,
                     KILLING_BULK_TOL)
    return out


def _flat_cone_geometry(outputs, doc):
    rows = _table(outputs, "cone_geometry")
    s, area = rows[:, 0], rows[:, 1]
    closed = 4.0 * math.pi * s ** 2
    out = _over("flat area vs 4 pi s^2",
                float(np.max(np.abs(area / closed - 1.0))), FLAT_AREA_TOL)
    s_max = doc["cone"]["s_max"]
    if abs(s[-1] - s_max) > 1e-9 or s[0] < 0.1 - 1e-12:
        out.append(f"area rows cover s in [{s[0]}, {s[-1]}], "
                   f"not [0.1, {s_max}]")
    m = outputs["report"]["metrics"]["cone_geometry"]
    out += _over("max |s trchi / 2 - 1|", m["expansion_deviation_max"],
                 FLAT_EXPANSION_TOL)
    return out


def _flat_transport(outputs, doc):
    m = outputs["report"]["metrics"]["transport"]
    ratios = _table(outputs, "transport")[:, 1]
    return (_over("max |psi - seed|", m["max_deviation_from_seed"],
                  FLAT_TRANSPORT_TOL)
            + _over("max |transported norm / seed norm - 1|",
                    float(np.max(np.abs(ratios - 1.0))), FLAT_TRANSPORT_TOL))


def _reconstruction(outputs, tol):
    errs = _table(outputs, "parametrix")[:, 1]
    out = []
    if len(errs) != 6:
        out.append(f"{len(errs)} reconstruction seeds, expected 6")
    return out + _over("max reconstruction error", float(np.max(errs)), tol)


def vacuum_quartic(mass, radius):
    """-<|alpha|^2>/180 at a static Schwarzschild vertex, in closed form.

    In the static orthonormal frame the tidal tensor is
    E = (M / r^3) diag(-2, 1, 1) with no magnetic part.  For L = -T + n,
    alpha = R(L, e_a, L, e_b) is twice the trace-free part of E on the
    screen orthogonal to n, so |alpha|^2 = 18 (M/r^3)^2 sin^4(angle of n
    to the radial direction), whose sphere average is 48/5 (M/r^3)^2.
    """
    return -(48.0 / 5.0) * (mass / radius ** 3) ** 2 / 180.0


def _area_law(outputs, doc):
    rows = _table(outputs, "cone_geometry")
    sel = rows[:, 0] >= AREA_LAW_WINDOW - 1e-12
    s, dev = rows[sel, 0], rows[sel, 2]
    if not np.all(dev < 0.0):
        return ["vacuum area deviation must be negative on the window"]
    slope = float(np.polyfit(np.log(s), np.log(-dev), 1)[0])
    out = _over("area-law exponent - 4", abs(slope - 4.0),
                AREA_LAW_EXPONENT_TOL)
    quartic = vacuum_quartic(workloads.SCHWARZSCHILD_MASS,
                             doc["vertex"][1])
    coef = dev[0] / s[0] ** 4
    return out + _over("s^4 coefficient vs -<|alpha|^2>/180",
                       abs(coef / quartic - 1.0), AREA_LAW_COEF_TOL)


def _lattice(outputs, doc):
    rows = _table(outputs, "evolution")
    energy, constraint = rows[:, 1], rows[:, 2]
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    growth = float(np.max(constraint) / constraint[0])
    m = outputs["report"]["metrics"]["evolution"]
    out = _over("lattice energy drift", drift, LATTICE_DRIFT_TOL)
    out += _over("Gauss-constraint growth", growth, LATTICE_GROWTH_MAX)
    out += _over("reported vs recomputed drift",
                 abs(m["energy_drift"] - drift), ARITHMETIC_TOL)
    t_final = doc["evolution"]["crossings"] * doc["evolution"]["length"]
    if abs(rows[-1, 0] - t_final) > 1e-9:
        out.append(f"lattice run ends at t = {rows[-1, 0]}, not {t_final}")
    return out


def _bounds(outputs, doc):
    m = outputs["report"]["metrics"]["bounds"]
    rows = _table(outputs, "bounds")
    env, picard = rows[:, 1], rows[:, 2]
    out = _over("Riccati blow-up time - 1", m["riccati_blowup_error"],
                RICCATI_TOL)
    out += _over("Pachpatte envelope vs Picard iteration",
                 float(np.max(np.abs(env - picard))), PICARD_TOL)
    if not np.all(np.diff(env) >= 0.0):
        out.append("the quadratic envelope must be nondecreasing")
    return out


CHECKS = {
    workloads.FLAT_WAVE: {
        "cone_geometry": _flat_cone_geometry,
        "transport": _flat_transport,
        "parametrix": lambda o, d: _reconstruction(o, FLAT_RECONSTRUCTION_TOL),
        "energy_balance": lambda o, d: _energy(o, killing_exact=True),
    },
    workloads.SCHWARZSCHILD_COULOMB: {
        "cone_geometry": _area_law,
        "parametrix": lambda o, d: _reconstruction(
            o, CURVED_RECONSTRUCTION_TOL),
        "energy_balance": lambda o, d: _energy(o, killing_exact=False),
    },
    workloads.SU2_LATTICE: {
        "evolution": _lattice,
        "bounds": _bounds,
    },
}


def check_outputs(workload, doc, outputs, skip=()):
    """Problems found in one scenario's outputs (empty when all pass)."""
    problems = []
    expected = set(doc["experiments"])
    if set(outputs["report"]["passed"]) != expected:
        problems.append(f"report covers {sorted(outputs['report']['passed'])}"
                        f", expected {sorted(expected)}")
    for name, check in CHECKS[workload].items():
        if name in skip:
            continue
        try:
            found = check(outputs, doc)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        problems += [f"{name}: {p}" for p in found]
    return problems


def check_identical(first_raw, raw):
    """Two runs of one config must write byte-identical report.json files."""
    if raw != first_raw:
        return ["report.json differs between two runs of one config"]
    return []


# ---------------------------------------------------------------------------
# the reconstruction target, recomputed in closed form
# ---------------------------------------------------------------------------

def closed_form_targets(workload, doc):
    """4 pi <seed_ab, F^ab(p)> for the six canonical seeds, closed form."""
    if workload == workloads.FLAT_WAVE:
        # F = k ^ pol at the vertex (cos 0 = 1), raised with eta
        params = doc["field"]["params"]
        khat = np.array(params["direction"], float)
        khat /= np.linalg.norm(khat)
        k = params["omega"] * np.concatenate([[-1.0], khat])
        trial = np.array([0.0, 0.0, 1.0]) if abs(khat[2]) < 0.9 \
            else np.array([0.0, 1.0, 0.0])
        pol3 = trial - np.dot(trial, khat) * khat
        pol = np.concatenate([[0.0], pol3 / np.linalg.norm(pol3)])
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        F_up = eta @ (np.outer(k, pol) - np.outer(pol, k)) @ eta
        return [4.0 * math.pi * 2.0 * F_up[m, n]
                for m in range(4) for n in range(m + 1, 4)]
    if workload == workloads.SCHWARZSCHILD_COULOMB:
        # only F_tr = q / r^2; g^tt g^rr = -1 on the static chart
        q = doc["field"]["params"]["charge"]
        r = doc["vertex"][1]
        return [-8.0 * math.pi * q / r ** 2] + [0.0] * 5
    return []


def check_targets(workload, doc):
    """Compare parametrix.representation_target with the closed form."""
    expected = closed_form_targets(workload, doc)
    if not expected:
        return []
    from ymcone import geometry, parametrix, runner
    scn = runner.parse_config(doc)
    chart = geometry.make_chart(scn.chart_name, **scn.chart_params)
    basis = runner.make_algebra(scn.algebra)
    field, _ = runner.make_field(basis, scn.profile, scn.profile_params)
    problems = []
    for i, (seed, want) in enumerate(zip(runner.canonical_seeds(basis),
                                         expected)):
        got = parametrix.representation_target(chart, basis, scn.vertex,
                                               seed, field)
        scale = max(abs(v) for v in expected)
        problems += _over(f"target of seed {i} vs closed form",
                          abs(got - want) / scale, TARGET_TOL)
    return problems
