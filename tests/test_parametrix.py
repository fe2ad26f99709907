"""Cone transport weight, screen operators, and the reconstruction formula."""

import numpy as np
import pytest

from ymcone import geometry, liegauge, nullcone, parametrix, runner, sphere

import oracles


@pytest.fixture(scope="module")
def u1():
    return liegauge.u1()


@pytest.fixture(scope="module")
def seeds(u1):
    return runner.canonical_seeds(u1)


@pytest.fixture(scope="module")
def su2_constant():
    """A constant su(2) potential A_m^i, as an array and a GaugePotential."""
    A = np.array([[0.3, -0.2, 0.1], [0.2, 0.25, 0.0],
                  [-0.1, 0.15, 0.3], [0.05, -0.2, 0.2]])
    return A, liegauge.GaugePotential(
        liegauge.su2(), lambda x: np.broadcast_to(A, np.shape(x)[:-1] + A.shape))


def _screen_laplacian(bundle, f):
    conn = parametrix.connection(bundle)
    return parametrix.screen_laplacian(
        bundle, parametrix.angular_gauge_derivative(bundle, f, conn), conn)


def test_transport_weight_constant_on_flat_cone(flat_bundle, u1, seeds):
    # with a trivial potential on the flat cone, s * lambda stays equal to
    # the vertex seed along every ray
    psi = parametrix.transport_weight(flat_bundle, seeds[0],
                                      parametrix.connection(flat_bundle))
    assert np.max(np.abs(psi - seeds[0])) < 1e-12


def test_transport_weight_bounded_schwarzschild(schw_bundle, u1, seeds):
    psi = parametrix.transport_weight(schw_bundle, seeds[3],
                                      parametrix.connection(schw_bundle))
    norms = np.sqrt(np.einsum("...mnk,...mnk->...", psi, psi))
    seed_norm = np.sqrt(np.einsum("mnk,mnk->", seeds[3], seeds[3]))
    assert np.all(np.isfinite(norms))
    assert np.max(norms) / seed_norm < 1.5


def test_transport_weight_gauge_bracket_closed_form(flat_bundle,
                                                    su2_constant):
    # a constant su(2) potential on the flat cone leaves only the bracket:
    # dpsi/ds = -[A_L, psi] = -A_L x psi, so psi(s) is the seed rotated by
    # exp(-s ad A_L), i.e. by the angle -s |A_L| about A_L (Rodrigues)
    A, potential = su2_constant
    rng = np.random.default_rng(3)
    seed = rng.standard_normal((4, 4, 3))
    seed = seed - np.swapaxes(seed, 0, 1)
    psi = parametrix.transport_weight(
        flat_bundle, seed, parametrix.connection(flat_bundle, potential))

    aL = np.einsum("mi,stpm->stpi", A, flat_bundle.L)
    norm = np.linalg.norm(aL, axis=-1, keepdims=True)
    k = (aL / norm)[..., None, None, :]
    angle = flat_bundle.s[:, None, None, None, None, None] \
        * norm[..., None, None]
    kv = np.sum(k * seed, axis=-1, keepdims=True)
    expected = (seed * np.cos(angle) - np.cross(k, seed) * np.sin(angle)
                + k * kv * (1.0 - np.cos(angle)))
    assert np.max(np.abs(psi - expected)) < 1e-10


@pytest.mark.parametrize("case", ["flat", "schwarzschild", "su2_bump"])
def test_stacked_transport_matches_single_seeds(case, request, u1, seeds):
    # one RK4 march of a seed stack equals the single-seed marches exactly,
    # through the Gamma(L) term on Schwarzschild and the A(L) bracket of a
    # non-constant su(2) potential
    potential = None
    if case == "schwarzschild":
        bundle = request.getfixturevalue("schw_bundle")
    else:
        bundle = request.getfixturevalue("flat_bundle")
    if case == "su2_bump":
        _, potential = runner.make_field(liegauge.su2(), "su2_bump", {})
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 4, 4, 3))
        stack = stack - np.swapaxes(stack, 1, 2)
    else:
        stack = np.asarray(seeds)
    conn = parametrix.connection(bundle, potential)
    assert (conn.gamma_L is not None) == (case == "schwarzschild")
    assert (conn.a_L is not None) == (case == "su2_bump")
    psi = parametrix.transport_weight(bundle, stack, conn)
    assert psi.shape == bundle.x.shape[:3] + stack.shape
    for j, seed in enumerate(stack):
        alone = parametrix.transport_weight(bundle, seed, conn)
        assert np.array_equal(psi[:, :, :, j], alone), j


def test_screen_laplacian_of_constant_vanishes(flat_bundle, u1):
    shape = (flat_bundle.n_s + 1, flat_bundle.grid.n_theta,
             flat_bundle.grid.n_phi, 1)
    f = np.ones(shape)
    lap = _screen_laplacian(flat_bundle, f)
    assert np.max(np.abs(lap[1:])) < 1e-8


def test_screen_laplacian_harmonic_eigenvalue(flat_bundle, u1):
    # on the flat cone the s-sphere has radius s, so the screen Laplacian
    # of a degree-l harmonic is -l(l+1)/s^2 times the harmonic
    grid = flat_bundle.grid
    d = grid.directions()
    y = d[..., 2] * d[..., 0]                 # combination of l = 2 harmonics
    f = np.broadcast_to(y[None, ..., None],
                        (flat_bundle.n_s + 1,) + y.shape + (1,)).copy()
    lap = _screen_laplacian(flat_bundle, f)
    live = flat_bundle.s >= 0.2
    s2 = flat_bundle.s[live, None, None, None] ** 2
    expected = -6.0 * f[live] / s2
    assert np.max(np.abs(lap[live] - expected)) < 1e-6


def test_by_parts_residual_scalar(flat_bundle, u1):
    # the two fields share low harmonics so the pairing scale is O(1)
    # (a pairing that vanishes by parity makes the relative defect 0/0)
    grid = flat_bundle.grid
    d = grid.directions()
    f = d[..., 2] + 0.3 * d[..., 0]
    h = 0.5 * d[..., 2] - 0.2 * d[..., 0] * d[..., 1]
    shape = (flat_bundle.n_s + 1,) + f.shape + (1,)
    f = np.broadcast_to(f[None, ..., None], shape).copy()
    h = np.broadcast_to(h[None, ..., None], shape).copy()
    i = flat_bundle.n_s // 2
    res = oracles.shell_by_parts_residual(flat_bundle, i, f, h)
    assert abs(res) < 1e-8


def test_gauge_bracket_in_screen_operators(flat_bundle, su2_constant):
    # a constant su(2) potential on the flat cone reaches D_b and D^b D_b
    # only through the bracket [A(Y_b), .]; with it the screen Laplacian
    # stays self-adjoint, for algebra-valued scalars and two-tensors
    A, potential = su2_constant
    b, grid = flat_bundle, flat_bundle.grid
    d = grid.directions()
    ang = np.stack([np.ones_like(d[..., 0]), d[..., 0], d[..., 2],
                    d[..., 0] * d[..., 1]], axis=-1)
    nodes = b.x.shape[:3]
    rng = np.random.default_rng(7)
    for tail in ((3,), (4, 4, 3)):
        f, h = (np.broadcast_to(
            np.tensordot(ang, rng.standard_normal((4,) + tail), 1),
            nodes + tail).copy() for _ in range(2))
        res = oracles.shell_by_parts_residual(b, b.n_s // 2, f, h,
                                              potential=potential)
        assert res <= 1e-12, tail

    # f = seed at every node: D_b f = [A(Y_b), seed] = A(Y_b) x seed, with
    # the sphere tangents Y_b = s d(0, n)/d(theta, phi) of the flat cone
    seed = rng.standard_normal((4, 4, 3))
    f = np.broadcast_to(seed, nodes + seed.shape).copy()
    df = parametrix.angular_gauge_derivative(
        b, f, parametrix.connection(b, potential))
    th, ph = grid.theta[:, None], grid.phi[None, :]
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    zero = 0.0 * st * sp
    dn = np.stack([np.stack([zero, ct * cp, ct * sp, zero - st], axis=-1),
                   np.stack([zero, -st * sp, st * cp, zero], axis=-1)],
                  axis=-2)
    aY = np.einsum("mi,stpbm->stpbi", A,
                   b.s[:, None, None, None, None] * dn)
    expected = np.cross(aY[..., None, None, :], seed)
    assert np.max(np.abs(df - expected)) < 1e-12


def test_representation_constant_field_exact(flat_bundle, u1, seeds):
    field, potential = runner.make_field(u1, "constant",
                                         {"components": [(0, 2, 0.8)]})
    reps = parametrix.assemble_representation(flat_bundle, seeds[:3], field,
                                              potential=potential)
    assert len(reps) == 3
    for rep in reps:
        assert rep["rel_error"] < 1e-10


def test_representation_plane_wave(flat_bundle, u1, seeds):
    field, potential = runner.make_field(u1, "plane_wave", {"omega": 1.0})
    rep, = parametrix.assemble_representation(flat_bundle, seeds[:1], field,
                                              potential=potential)
    assert rep["rel_error"] < 2e-2


def _reconstruction_case(name, request, u1):
    """(bundle, field, potential, t_slice) for a flat and a curved cone."""
    if name == "flat":
        field, potential = runner.make_field(u1, "plane_wave", {"omega": 1.0})
        return request.getfixturevalue("flat_bundle"), field, potential, None
    field, potential = runner.make_field(u1, "coulomb", {"charge": 1.0})
    bundle = request.getfixturevalue("schw_bundle")
    return bundle, field, potential, bundle.p[0] - 0.3


@pytest.mark.parametrize("name", ["flat", "schwarzschild"])
def test_batched_seeds_match_single_seed_calls(name, request, u1, seeds):
    bundle, field, potential, t_slice = _reconstruction_case(name, request, u1)
    batched = parametrix.assemble_representation(
        bundle, seeds, field, potential=potential, t_slice=t_slice)
    assert len(batched) == len(seeds)
    for i, rep in enumerate(batched):
        alone, = parametrix.assemble_representation(
            bundle, seeds[i:i + 1], field, potential=potential,
            t_slice=t_slice)
        for key in ("source_term", "cone_correction_term",
                    "initial_data_term", "rel_error"):
            assert abs(rep[key] - alone[key]) <= 1e-12, (i, key)


def _weight_shapes(monkeypatch):
    """Record the shape of what reaches transport_weight (its seed) and the
    sphere operators (their per-node array)."""
    seen = {}
    for name in ("transport_weight", "angular_gauge_derivative",
                 "screen_laplacian"):
        def recording(bundle, f, *args, fn=getattr(parametrix, name),
                      shapes=seen.setdefault(name, [])):
            shapes.append(np.shape(f))
            return fn(bundle, f, *args)

        monkeypatch.setattr(parametrix, name, recording)
    return seen


def test_flat_abelian_reconstruction_carries_one_scalar_weight(
        flat_bundle, u1, seeds, monkeypatch):
    # on a flat chart with an abelian algebra psi_j = w seed_j, so no array
    # with a seed axis reaches the transport or the sphere operators: one
    # scalar weight per node, each operator called once
    seen = _weight_shapes(monkeypatch)
    field, potential = runner.make_field(u1, "plane_wave", {"omega": 1.0})
    parametrix.assemble_representation(flat_bundle, seeds, field,
                                       potential=potential)
    nodes = (flat_bundle.crossing(flat_bundle.p[0] - 1.0).stop,) \
        + flat_bundle.x.shape[1:3]
    assert seen == {"transport_weight": [()],
                    "angular_gauge_derivative": [nodes],
                    "screen_laplacian": [nodes + (2,)]}


def test_seed_stack_goes_in_chunks_of_chunk_over_n_slices(
        schw_bundle, u1, seeds, monkeypatch):
    # a chunk of the stack holds as many values as a geometry chunk of one
    # seed: bundle.chunk // n slices of the six-seed stack, the remainder
    # last, while the transport marches the whole stack once
    seen = _weight_shapes(monkeypatch)
    field, potential = runner.make_field(u1, "coulomb", {"charge": 1.0})
    t_slice = schw_bundle.p[0] - 0.3
    parametrix.assemble_representation(schw_bundle, seeds, field,
                                       potential=potential, t_slice=t_slice)
    stop = schw_bundle.crossing(t_slice).stop
    width = schw_bundle.chunk // len(seeds)
    assert stop % width and stop > width      # several chunks, a short last
    sizes = [min(width, stop - i) for i in range(0, stop, width)]
    grid, stack = schw_bundle.x.shape[1:3], (len(seeds), 4, 4, 1)
    assert seen == {
        "transport_weight": [stack],
        "angular_gauge_derivative": [(k,) + grid + stack for k in sizes],
        "screen_laplacian": [(k,) + grid + (2,) + stack for k in sizes]}


def test_scalar_weight_route_matches_seed_stack_route(flat_bundle, u1, seeds,
                                                      monkeypatch):
    # the same plane wave in su(2) direction 0 is not abelian, so it takes
    # the seed-stack route; every per-seed term matches the u(1) scalar route
    seen = _weight_shapes(monkeypatch)
    reps = {}
    for basis in (u1, liegauge.su2()):
        field, potential = runner.make_field(basis, "plane_wave",
                                             {"omega": 1.0})
        reps[basis.dim] = parametrix.assemble_representation(
            flat_bundle, runner.canonical_seeds(basis), field,
            potential=potential)
    assert [len(s) for s in seen["transport_weight"]] == [0, 4]
    assert len(reps[1]) == len(reps[3]) == len(seeds)
    for j, (scalar, stack) in enumerate(zip(reps[1], reps[3])):
        for key in ("source_term", "cone_correction_term",
                    "initial_data_term", "reconstructed"):
            assert abs(scalar[key] - stack[key]) <= 1e-12, (j, key)


def test_curvature_computed_once_per_call(schw_bundle, u1, seeds,
                                          monkeypatch):
    # the curvature coupling and the wave source do not depend on the
    # seed and share one Riemann evaluation per chunk, so six seeds cost
    # as many as one; the cone connection is built once per call, so the
    # Christoffel evaluations do not grow with the seeds either
    calls = {"riemann": [], "christoffel": []}
    for name, seen in calls.items():
        def counting(chart, x, fn=getattr(geometry, name), seen=seen):
            seen.append(1)
            return fn(chart, x)

        monkeypatch.setattr(geometry, name, counting)
    schw_bundle.optical(), schw_bundle.mass_aspect()    # cached on the bundle
    field, potential = runner.make_field(u1, "coulomb", {"charge": 1.0})
    counts = []
    t_slice = schw_bundle.p[0] - 0.3
    for stack in (seeds[:1], seeds):
        for seen in calls.values():
            seen.clear()
        parametrix.assemble_representation(
            schw_bundle, stack, field, potential=potential, t_slice=t_slice)
        counts.append({name: len(seen) for name, seen in calls.items()})
    # the seed-free node terms cover only the slices the identity reads
    stop = schw_bundle.crossing(t_slice).stop
    n_chunks = -(-stop // schw_bundle.chunk)
    assert [c["riemann"] for c in counts] == [n_chunks, n_chunks]
    assert counts[1]["christoffel"] == counts[0]["christoffel"]


def test_flat_reconstruction_builds_no_twin(flat_chart, u1, seeds,
                                           monkeypatch):
    # the reconstruction builds no cone beyond the one it is given; on a
    # flat chart the mass aspect is zero in closed form
    bundle = nullcone.NullConeBundle(flat_chart, np.zeros(4),
                                     sphere.SphereGrid(6, 12), s_max=1.2,
                                     ds=0.02)
    built = []
    init = nullcone.NullConeBundle.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nullcone.NullConeBundle, "__init__", counting)
    field = runner.plane_wave_field(u1)
    reps = parametrix.assemble_representation(bundle, seeds, field)
    assert not built
    assert max(r["rel_error"] for r in reps) < 1e-10


def test_nan_integrand_names_the_node(flat_bundle, u1, seeds):
    # a field that is NaN at one cone node stops the cone term there
    bad = flat_bundle.x[5, 2, 3]

    def fn(x):
        f = np.zeros(np.shape(x)[:-1] + (4, 4, 1))
        f[..., 0, 1, 0], f[..., 1, 0, 0] = 1.0, -1.0
        f[np.all(x == bad, axis=-1)] = np.nan
        return f

    field = liegauge.FieldStrength(u1, fn)
    with pytest.raises(nullcone.ConeError, match=r"\(5, 2, 3\)"):
        parametrix.assemble_representation(flat_bundle, seeds[:1], field)


@pytest.mark.parametrize("name", ["flat", "schwarzschild"])
def test_nothing_past_the_ring_is_read(name, request, u1, seeds):
    # a field that is NaN only at nodes past the slices the ring reads
    # (Crossing.stop) leaves every term as it is and raises nothing
    bundle, field, potential, t_slice = _reconstruction_case(name, request, u1)
    if t_slice is None:
        t_slice = bundle.p[0] - 0.5        # the ring at mid-cone
    crossing = bundle.crossing(t_slice)
    stop = crossing.stop
    assert stop == int(np.max(crossing.i0)) + 3
    t_cut = np.min(bundle.x[:stop, ..., 0])  # earliest time the pass reads

    def masked(x):
        f = field(x)
        f[np.asarray(x)[..., 0] < t_cut] = np.nan
        return f

    nan_field = liegauge.FieldStrength(u1, masked, jac=field.jacobian)
    assert np.isnan(parametrix.sample_field(bundle, nan_field,
                                            (4, 4, 1))[-1]).all()
    clean, nans = (parametrix.assemble_representation(
        bundle, seeds, f, potential=potential, t_slice=t_slice)
        for f in (field, nan_field))
    assert nans == clean


def test_seed_stack_shape_checked(flat_bundle, u1, seeds):
    field, potential = runner.make_field(u1, "plane_wave", {"omega": 1.0})
    with pytest.raises(ValueError, match="seeds must have shape"):
        parametrix.assemble_representation(flat_bundle, seeds[0], field,
                                           potential=potential)


def test_vertex_limit_matches_target(flat_bundle, u1, seeds):
    field, potential = runner.make_field(u1, "plane_wave", {"omega": 0.7})
    seed = seeds[2]                # pairs with the transverse field component
    target = 2.0 * parametrix.representation_target(
        flat_bundle.chart, u1, flat_bundle.p, seed, field)
    got = oracles.vertex_limit(flat_bundle, seed, field,
                               potential=potential)
    assert abs(got - target) < 0.01 * abs(target)


def test_transport_weight_rotates_seed_on_su2_oscillator(flat_chart):
    # on a flat cone from (t_p, 0) the weight obeys dpsi/ds = -f [omega, psi]
    # with A_L = f(t_p - s) omega, so psi = exp(-theta ad_omega) seed with
    # theta(s) = int f over [t_p - s, t_p]: the seed's e_0 turns about omega
    A, _ = oracles.su2_oscillator(0.8)
    t_p = 0.3
    seed = np.zeros((4, 4, 3))
    seed[0, 1, 0], seed[1, 0, 0] = 1.0, -1.0
    e0 = np.array([1.0, 0.0, 0.0])
    errs = []
    for ds in (1e-2, 5e-3, 2.5e-3):
        grid = sphere.SphereGrid(6, 12)
        b = nullcone.NullConeBundle(flat_chart, np.array([t_p, 0.0, 0.0, 0.0]),
                                    grid, 0.6, ds)
        psi = parametrix.transport_weight(b, seed,
                                          parametrix.connection(b, A))
        theta = oracles.oscillator_profile(0.8, t_p)[2] \
            - oracles.oscillator_profile(0.8, t_p - b.s)[2]
        th = theta[:, None, None, None]
        w = grid.directions()[None]                       # omega
        rot = np.cos(th) * e0 - np.sin(th) * np.cross(w, e0) \
            + (1.0 - np.cos(th)) * w[..., :1] * w
        exact = np.zeros(psi.shape)
        exact[..., 0, 1, :], exact[..., 1, 0, :] = rot, -rot
        errs.append(np.max(np.abs(psi - exact)))
    assert errs[1] <= 2e-6
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 1.8) & (orders <= 2.2))


def test_representation_target_closed_form(flat_bundle, u1, seeds):
    # seed = dt ^ dx against constant F_tx: 4 pi <seed, F> = 4 pi * g^tt g^xx
    # * 2 * F_tx = -8 pi F_tx
    field, _ = runner.make_field(u1, "constant", {"components": [(0, 1, 1.0)]})
    val = parametrix.representation_target(flat_bundle.chart, u1,
                                           flat_bundle.p, seeds[0], field)
    assert abs(val + 8.0 * np.pi) < 1e-12
