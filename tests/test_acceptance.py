"""Acceptance criteria: one test and one printed pass/fail line per criterion.

Shared high-resolution bundles are built once per module and their wall-clock
build times recorded, so the runtime budgets can be charged to the criteria
that own them.
"""

import time

import numpy as np
import pytest

from ymcone import (bounds, energy, evolution, geometry, liegauge, nullcone,
                    parametrix, runner, sphere)

import oracles

VERTEX_SCHW = np.array([0.0, 10.0, np.pi / 2, 0.0])

# reconstruction errors below this floor are dominated by roundoff, not by
# discretization, so refinement cannot (and need not) reduce them further
ROUNDOFF_FLOOR = 1e-12


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def flat_big(timings):
    # 512 directions, affine step 1e-3
    t0 = time.perf_counter()
    chart = geometry.make_chart("minkowski")
    grid = sphere.SphereGrid(16, 32)
    b = nullcone.NullConeBundle(chart, np.zeros(4), grid, s_max=2.0, ds=1e-3)
    b.optical()
    timings["flat_big"] = time.perf_counter() - t0
    return b


@pytest.fixture(scope="module")
def schw_big(timings):
    t0 = time.perf_counter()
    chart = geometry.make_chart("schwarzschild", mass=1.0)
    grid = sphere.SphereGrid(12, 24)
    b = nullcone.NullConeBundle(chart, VERTEX_SCHW, grid, s_max=2.0, ds=2e-3)
    b.optical()
    timings["schw_big"] = time.perf_counter() - t0
    return b


@pytest.fixture(scope="module")
def schw_small(timings):
    t0 = time.perf_counter()
    chart = geometry.make_chart("schwarzschild", mass=1.0)
    grid = sphere.SphereGrid(8, 16)
    b = nullcone.NullConeBundle(chart, VERTEX_SCHW, grid, s_max=0.5, ds=1e-3)
    b.optical()
    timings["schw_small"] = time.perf_counter() - t0
    return b


@pytest.fixture(scope="module")
def u1():
    return liegauge.u1()


def test_criterion_01_flat_optical_exactness(flat_big, timings):
    opt = flat_big.optical()
    live = (flat_big.s >= 0.1) & (flat_big.s <= 2.0)
    dev = float(np.max(np.abs(
        flat_big.s[live, None, None] * opt["trchi"][live] / 2.0 - 1.0)))
    elapsed = timings["flat_big"]
    ok = dev < 1e-6 and elapsed < 30.0
    assert _report(1, ok, f"max|s*trchi/2 - 1| = {dev:.3e} "
                          f"(tol 1e-6), {elapsed:.1f}s (< 30s)")


def _vertex_area_law(bundle):
    """Near-vertex law of area/(4 pi s^2) - 1 from the vertex curvature alone.

    The Raychaudhuri/Sachs expansion from the vertex p gives
        area/(4 pi s^2) - 1 = -<Ric(L,L)>_p s^2/6 + O(s^3),
    and, where Ric(L,L) vanishes at p,
        area/(4 pi s^2) - 1 = -<|alpha|^2>_p s^4/180 + O(s^5)
    with alpha_ab = R(L, e_a, L, e_b) for a screen-orthonormal pair e_a and
    <.>_p the average over the initial directions.  The curvature comes from
    ``geometry.riemann`` at p, a route independent of the cone.  Returns
    (leading exponent, s^4 coefficient of the Ricci-flat case): the exponent
    is 2 where <Ric(L,L)>_p is nonzero and 4 where it vanishes.
    """
    grid = bundle.grid
    curv = geometry.riemann(bundle.chart, bundle.p)
    triad = geometry.orthonormal_frame(bundle.chart, bundle.p,
                                       time_axis_hint=bundle.T_p)[1:]
    L = bundle.L[0]                                   # (nth, nph, 4)
    th = grid.theta[:, None] * np.ones(grid.n_phi)
    ph = np.ones(grid.n_theta)[:, None] * grid.phi
    # unit sphere tangents orthogonal to each initial direction omega
    v_th = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph),
                     -np.sin(th)], axis=-1)
    v_ph = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)], axis=-1)
    e = np.einsum("tpai,im->tpam", np.stack([v_th, v_ph], axis=-2), triad)
    alpha = np.einsum("rsmn,tpr,tpas,tpm,tpbn->tpab",
                      curv.riemann, L, e, L, e)
    mean = lambda f: float(grid.integrate(f)) / (4.0 * np.pi)
    ric_LL = mean(np.einsum("mn,tpm,tpn->tp", curv.ricci, L, L))
    alpha2 = mean(np.sum(alpha ** 2, axis=(-2, -1)))
    # Ricci at roundoff level relative to the Weyl part counts as vacuum
    vacuum = abs(ric_LL) <= 1e-8 * (abs(ric_LL) + np.sqrt(alpha2))
    return (4.0 if vacuum else 2.0), -alpha2 / 180.0


def test_criterion_02_area_law(flat_big, schw_big, timings):
    t0 = time.perf_counter()
    live = (flat_big.s >= 0.1) & (flat_big.s <= 1.0)
    flat_dev = float(np.max(np.abs(
        flat_big.area()[live] / (4.0 * np.pi * flat_big.s[live] ** 2) - 1.0)))

    sel = (schw_big.s >= 0.3) & (schw_big.s <= 2.0)
    dev = schw_big.area()[sel] / (4.0 * np.pi * schw_big.s[sel] ** 2) - 1.0
    slope = np.polyfit(np.log(schw_big.s[sel]), np.log(np.abs(dev)), 1)[0]
    expected, quartic = _vertex_area_law(schw_big)
    if expected == 4.0:
        # the s^4 coefficient at the start of the window against the oracle
        coef = dev[0] / schw_big.s[sel][0] ** 4
        coef_err = abs(coef / quartic - 1.0)
        coef_note = (f"; s^4 coefficient {coef:.4e} vs -<|alpha|^2>/180 = "
                     f"{quartic:.4e} (rel {coef_err:.1e}, tol 1e-2)")
    else:
        coef_err, coef_note = 0.0, ""
    elapsed = timings["flat_big"] + timings["schw_big"] \
        + time.perf_counter() - t0
    ok = (flat_dev < 1e-3 and abs(slope - expected) < 0.3
          and coef_err < 1e-2 and elapsed < 120.0)
    assert _report(
        2, ok,
        f"flat max deviation {flat_dev:.2e} (tol 1e-3); curved deviation "
        f"exponent {slope:.2f} (vertex curvature predicts {expected:.0f} "
        f"+- 0.3){coef_note}; {elapsed:.0f}s (< 120s)")


def test_criterion_03_frame_pairings(flat_big, schw_big, schw_small):
    worst = max(max(b.frame_pairing_residuals().values())
                for b in (flat_big, schw_big, schw_small))
    ok = worst < 1e-10
    assert _report(3, ok, f"max frame pairing residual {worst:.3e} "
                          f"over all acceptance bundles (tol 1e-10)")


def test_criterion_04_transport(flat_big, schw_small, u1, timings):
    t0 = time.perf_counter()
    seed = runner.canonical_seeds(u1)[0]
    psi = parametrix.transport_weight(flat_big, seed,
                                      parametrix.connection(flat_big))
    flat_dev = float(np.max(np.abs(psi - seed)))

    psi_s = parametrix.transport_weight(schw_small, seed,
                                        parametrix.connection(schw_small))
    seed_norm = float(np.sqrt(np.sum(seed ** 2)))
    ratio = float(np.max(np.sqrt(
        np.einsum("...mnk,...mnk->...", psi_s, psi_s))) / seed_norm)
    elapsed = time.perf_counter() - t0 + timings["schw_small"]
    ok = flat_dev < 1e-10 and ratio <= 1.5 and elapsed < 60.0
    assert _report(4, ok, f"flat max|s*lambda - seed| = {flat_dev:.3e} "
                          f"(tol 1e-10); curved sup norm ratio {ratio:.3f} "
                          f"(<= 1.5); {elapsed:.0f}s (< 60s)")


def test_criterion_05_reconstruction(flat_big, u1, timings):
    t0 = time.perf_counter()
    field, potential = runner.make_field(u1, "plane_wave", {"omega": 1.0})
    seeds = runner.canonical_seeds(u1)
    errs = [rep["rel_error"] for rep in parametrix.assemble_representation(
        flat_big, seeds, field, potential=potential)]
    worst = float(np.max(errs))

    # refinement ladder; errors below the roundoff floor count as converged
    ladder_errs = []
    for nth, nph, ds in ((8, 16, 4e-3), (12, 24, 2e-3)):
        grid = sphere.SphereGrid(nth, nph)
        b = nullcone.NullConeBundle(flat_big.chart, np.zeros(4), grid,
                                    s_max=2.0, ds=ds)
        ladder_errs.append(parametrix.assemble_representation(
            b, seeds[:1], field, potential=potential)[0]["rel_error"])
    ladder_errs.append(errs[0])
    above = [e for e in ladder_errs if e > ROUNDOFF_FLOOR]
    if len(above) >= 2:
        order = float(np.log2(above[0] / above[-1]) / (len(above) - 1))
        refinement_ok = order >= 1.0
        refinement_note = f"refinement order {order:.2f} (>= 1)"
    else:
        refinement_ok = True
        refinement_note = (f"refinement at roundoff floor "
                           f"(errors {max(ladder_errs):.1e} < {ROUNDOFF_FLOOR:.0e})")
    elapsed = time.perf_counter() - t0 + timings["flat_big"]
    ok = worst < 2e-2 and refinement_ok and elapsed < 300.0
    assert _report(5, ok, f"worst seed rel error {worst:.3e} (tol 2e-2); "
                          f"{refinement_note}; {elapsed:.0f}s (< 300s)")


def test_criterion_06_vertex_limit(flat_big, u1):
    field, potential = runner.make_field(u1, "plane_wave", {"omega": 0.7})
    seed = runner.canonical_seeds(u1)[2]
    target = 2.0 * parametrix.representation_target(
        flat_big.chart, u1, flat_big.p, seed, field)
    got = oracles.vertex_limit(flat_big, seed, field, potential=potential)
    rel = abs(got - target) / abs(target)
    ok = rel < 0.01
    assert _report(6, ok, f"vertex shell limit rel error {rel:.3e} (tol 1e-2)")


def test_criterion_07_energy_conservation(timings):
    t0 = time.perf_counter()
    lat = evolution.Lattice2D(64, 1.0)
    su2 = liegauge.su2()
    state = evolution.crossed_stream_data(lat, su2, amplitude=0.1)
    e0 = evolution.total_energy(state)
    c0 = evolution.constraint_residual(state)
    _, rows = evolution.run_diagnostics(state, 0.1 * lat.dx, 10.0 * lat.length)
    drift = float(np.max(np.abs(rows[:, 1] - e0)) / e0)
    growth = float(np.max(rows[:, 2]) / c0)
    elapsed = time.perf_counter() - t0
    ok = drift < 1e-6 and growth < 10.0 and elapsed < 120.0
    assert _report(7, ok, f"energy drift {drift:.3e} (tol 1e-6); constraint "
                          f"growth {growth:.2f}x (< 10x); "
                          f"{elapsed:.0f}s (< 120s)")


def test_criterion_08_divergence_identity(flat_big, u1):
    field, _ = runner.make_field(u1, "plane_wave",
                                 {"omega": 1.0, "direction": [1.0, 1.0, 0.0]})
    rep = energy.divergence_identity_report(field, flat_big, -1.5, -0.75)
    flat_res = rep["relative_residual"]
    flat_ok = flat_res < 1e-3 and rep["bulk"] == 0.0

    # static curved configuration: residual small and shrinking under
    # refinement of the cone and slice quadratures
    coulomb, _ = runner.make_field(u1, "coulomb", {})
    chart = geometry.make_chart("schwarzschild", mass=1.0)
    residuals = []
    for nth, nph, ds, n_rad in ((6, 12, 5e-3, 12), (10, 20, 2.5e-3, 24)):
        b = nullcone.NullConeBundle(chart, VERTEX_SCHW,
                                    sphere.SphereGrid(nth, nph),
                                    s_max=0.6, ds=ds)
        rep_s = energy.divergence_identity_report(coulomb, b, -0.5, -0.25,
                                                  n_radial=n_rad)
        residuals.append(rep_s["relative_residual"])
    curved_ok = residuals[-1] < 1e-2 and residuals[-1] < residuals[0]
    ok = flat_ok and curved_ok
    assert _report(8, ok, f"flat residual {flat_res:.3e} (tol 1e-3, bulk 0); "
                          f"curved residuals {residuals[0]:.2e} -> "
                          f"{residuals[-1]:.2e} (tol 1e-2, decreasing)")


def test_criterion_09_cartan_einstein(timings):
    t0 = time.perf_counter()
    chart = geometry.make_chart("schwarzschild", mass=1.0)
    ff = liegauge.static_diagonal_frame(chart)
    rng = np.random.default_rng(9)
    pts = VERTEX_SCHW + 0.05 * chart.coordinate_scale \
        * rng.standard_normal((8, 4))
    step = 1e-3 * chart.coordinate_scale
    curv = liegauge.cartan_curvature(chart, ff, step=step)(pts)
    riem = geometry.riemann(chart, pts).riemann
    e = ff(pts)
    frame_riem = np.einsum("...rsmn,...ar,...bs->...mnab", riem, e, e)
    match = float(np.max(np.abs(curv - frame_riem)))
    res = float(np.max(np.abs(
        liegauge.cartan_ym_residual(chart, pts, ff, step=step))))
    elapsed = time.perf_counter() - t0
    ok = match < 1e-6 and res < 1e-6 and elapsed < 60.0
    assert _report(9, ok, f"curvature match {match:.3e}, field-equation "
                          f"residual {res:.3e} (tol 1e-6); "
                          f"{elapsed:.0f}s (< 60s)")


def test_criterion_10_bianchi_order():
    chart = geometry.make_chart("minkowski")
    su2 = liegauge.su2()
    A = runner.su2_bump_potential(su2, amplitude=0.3)
    F0 = liegauge.curvature_from_potential(A)
    rng = np.random.default_rng(10)
    pts = 0.5 * rng.standard_normal((10, 4))
    errs = []
    for h in (0.2, 0.1, 0.05):
        F = liegauge.FieldStrength(su2, F0.fn, step=h)
        errs.append(float(np.max(np.abs(
            oracles.bianchi_residual(chart, pts, F, A)))))
    order = float(np.log2(errs[0] / errs[-1]) / 2.0)
    ok = abs(order - 4.0) < 0.3
    assert _report(10, ok, f"refinement order {order:.2f} (4.0 +- 0.3)")


def test_criterion_11_inequality_checker():
    ric = bounds.BoundSpec(1.0, 0.0, 2.0, 1e-4, double_coef=0.0)
    blow = bounds.pachpatte_envelope(ric)
    blow_err = abs(blow.t_blowup - 1.0)

    full = bounds.BoundSpec(0.1, 0.0, 1.0, 1e-3)
    env = bounds.pachpatte_envelope(full)
    oracle = bounds.picard_envelope(full)
    mismatch = float(np.max(np.abs(env.b - oracle.b)))
    ok = blow_err < 1e-4 and mismatch < 1e-6
    assert _report(11, ok, f"blow-up time error {blow_err:.3e} (tol 1e-4); "
                           f"Picard mismatch {mismatch:.3e} (tol 1e-6)")


def test_criterion_12_screen_laplacian_self_adjoint(flat_big, schw_small):
    rng = np.random.default_rng(12)
    worst = 0.0
    for b in (flat_big, schw_small):
        d = b.grid.directions()
        shape = (b.n_s + 1, b.grid.n_theta, b.grid.n_phi, 1)

        def random_field():
            # random smooth band-limited field with s-dependence
            c = rng.standard_normal(4)
            ang = (c[0] + c[1] * d[..., 0] + c[2] * d[..., 2]
                   + c[3] * d[..., 0] * d[..., 1])
            rad = 1.0 + 0.5 * rng.uniform() * b.s
            return np.broadcast_to(
                (rad[:, None, None] * ang)[..., None], shape).copy()

        for _ in range(3):
            f, h = random_field(), random_field()
            i = int(rng.integers(b.n_s // 4, b.n_s))
            res = oracles.shell_by_parts_residual(b, i, f, h)
            worst = max(worst, float(res))
    ok = worst < 1e-8
    assert _report(12, ok, f"worst integration-by-parts defect {worst:.3e} "
                           f"(tol 1e-8)")
