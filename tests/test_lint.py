"""Static checks over the package source."""

import ast
import pathlib
import re

import ymcone

SRC = pathlib.Path(ymcone.__file__).parent

#: (module, function, parameter) kept unread on purpose: the benchmark's
#: target check (``bench/checks.py``) passes the algebra positionally
KEPT = {("parametrix", "representation_target", "basis")}


def _only_raises_not_implemented(fn):
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(source, module):
    """(function, parameter) of every ``def`` in ``source`` whose body never
    reads that parameter.  Exempt: ``self``; bodies that only raise
    NotImplementedError; the experiment signature ``runner._exp_*(scn,
    bundle)``, which the runner calls uniformly; and ``KEPT``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or _only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            experiment = module == "runner" and fn.name.startswith("_exp_") \
                and p in ("scn", "bundle")
            if p not in read and p != "self" and not experiment \
                    and (module, fn.name, p) not in KEPT:
                found.append((fn.name, p))
    return found


def test_checker_flags_an_unread_parameter():
    source = '''
def pairing(bundle, f, f_up):
    """<f, f_up> per node."""
    return (f * f_up).sum()

class Chart:
    def diagonal(self, x):
        raise NotImplementedError
'''
    assert unread_parameters(source, "parametrix") == [("pairing", "bundle")]


def test_every_parameter_is_read():
    unread = [(path.stem, *hit) for path in sorted(SRC.glob("*.py"))
              for hit in unread_parameters(path.read_text(), path.stem)]
    assert not unread, f"parameters never read: {unread}"


def structure_constant_einsums(source):
    """Line numbers of the ``np.einsum`` calls in ``source`` that take an
    algebra's structure constants (an attribute ``.c``): algebra products
    go through ``AlgebraBasis.bracket``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and any(isinstance(arg, ast.Attribute) and arg.attr == "c"
                    for arg in node.args)]


def test_checker_flags_a_structure_constant_einsum():
    source = '''
def wave_source(chart, x, F, curv):
    basis = F.basis
    comm = -2.0 * np.einsum("ijk,...a,...ami,...naj->...mnk",
                            basis.c, inv, f, f)
    return np.einsum("...a,...aabk->...bk", inv, comm)
'''
    assert structure_constant_einsums(source) == [4]


def test_no_einsum_over_structure_constants():
    hits = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
            for line in structure_constant_einsums(path.read_text())]
    assert not hits, f"einsum over structure constants: {hits}"


def quadrature_einsums(source):
    """Line numbers of the ``np.einsum`` calls in ``source`` that take a
    grid's quadrature weights (an attribute ``.weights``): solid-angle
    integrals go through ``SphereGrid.integrate``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and any(isinstance(arg, ast.Attribute) and arg.attr == "weights"
                    for arg in node.args)]


def test_checker_flags_a_quadrature_einsum():
    source = '''
def ring_integral(self, f_ring):
    b = self.bundle
    J = self.interpolate(b.optical()["J"])
    phi = self.interpolate(b.phi)
    return float(np.einsum("tp,tp->", np.asarray(f_ring) * J * phi,
                           b.grid.weights))
'''
    assert quadrature_einsums(source) == [6]


def test_sphere_quadrature_goes_through_integrate():
    hits = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
            if path.stem != "sphere"
            for line in quadrature_einsums(path.read_text())]
    assert not hits, f"einsum over sphere weights outside sphere.py: {hits}"


def structure_constant_probes(source):
    """Line numbers of the ``np.any(<expr>.c)`` calls in ``source``: whether
    an algebra is abelian is asked of ``AlgebraBasis.abelian``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "any"
            and node.args and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "c"]


def test_checker_flags_a_structure_constant_probe():
    source = '''
def _mirrors(basis):
    if not np.any(basis.c):
        return 0
    return 2 if np.any(basis.c[0]) else 0
'''
    assert structure_constant_probes(source) == [3]


def test_abelian_is_asked_of_the_basis():
    hits = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
            if path.stem != "liegauge"
            for line in structure_constant_probes(path.read_text())]
    assert not hits, f"np.any over structure constants: {hits}"


def class_assignments(source, name):
    """(class, line) of every assignment to ``name`` directly in a class
    body of ``source``; assignments inside methods do not count."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [getattr(stmt, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == name
                   for t in targets):
                found.append((cls.name, stmt.lineno))
    return found


def test_checker_flags_a_class_flag():
    source = '''
class Minkowski(Chart):
    name = "minkowski"
    flat = True
    ricci_flat = True

    def optical(self):
        flat = 2.0 / self.s
        return flat
'''
    assert class_assignments(source, "flat") == [("Minkowski", 4)]


def test_no_class_sets_flat():
    # Chart.flat is derived from Chart.ignorable; a class attribute would
    # shadow the property
    hits = [(path.stem, *hit) for path in sorted(SRC.glob("*.py"))
            for hit in class_assignments(path.read_text(), "flat")]
    assert not hits, f"class bodies assigning flat: {hits}"


#: numpy's complex scalar types, by attribute name
COMPLEX_TYPES = re.compile(r"complex(64|128|256|floating)?|c(single|double"
                           r"|longdouble)")
#: complex dtype strings
COMPLEX_DTYPES = re.compile(r"[<>=]?(complex(64|128|256)?|c(8|16|32))")


def complex_values(source):
    """Line numbers of the complex literals (``1j``) and complex dtypes in
    ``source``: the name ``complex``, numpy's complex scalar types and
    complex dtype strings."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        value = node.value if isinstance(node, ast.Constant) else None
        if isinstance(value, complex) \
                or isinstance(value, str) and COMPLEX_DTYPES.fullmatch(value) \
                or isinstance(node, ast.Name) and node.id == "complex" \
                or isinstance(node, ast.Attribute) \
                and COMPLEX_TYPES.fullmatch(node.attr):
            hits.append(node.lineno)
    return sorted(hits)


def test_checker_flags_complex_values():
    source = '''
def shifted(self, eps):
    """A complex vertex, with np.iscomplexobj as its probe."""
    z = self.p + 1j * eps
    w = np.zeros(3, dtype=complex)
    u = np.empty(3, dtype=np.complex128)
    return z.astype("c16"), u.real, np.iscomplexobj(w)
'''
    assert complex_values(source) == [4, 5, 6, 7]


def test_no_complex_values_outside_geometry():
    # the one complex step is geometry.christoffel_derivative; a cone, its
    # optics and its mass aspect are real
    hits = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
            if path.stem != "geometry"
            for line in complex_values(path.read_text())]
    assert not hits, f"complex values outside geometry.py: {hits}"


#: public functions with no caller in ``src/``, and why each stays
NO_SRC_CALLER = {
    "geometry.inverse_metric": "bench/tracing.py wraps it",
}


def unreferenced_defs(sources):
    """Qualified names (module[.Class].name) of the public module-level
    functions and methods in ``sources`` (module -> source) whose name
    appears, as a name or an attribute, nowhere outside their own body."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            owner = [node] if isinstance(node, ast.ClassDef) else []
            members = node.body if owner else [node]
            defs += [(".".join([module] + [c.name for c in owner]
                               + [fn.name]), fn)
                     for fn in members
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not fn.name.startswith("_")]
    found = []
    for qualname, fn in defs:
        own = {id(n) for n in ast.walk(fn)}
        if not any(id(n) not in own
                   and fn.name in (getattr(n, "id", None),
                                   getattr(n, "attr", None))
                   for tree in trees.values() for n in ast.walk(tree)):
            found.append(qualname)
    return found


def test_checker_flags_an_unreferenced_def():
    sources = {"energy": '''
def bulk_term(chart, F):
    return bulk_density(chart, F) + bulk_term(chart, None)

def bulk_density(chart, F):
    return 0.0
''', "evolution": '''
class GaugeState:
    def copy(self):
        return GaugeState()

    def energy(self):
        return self.total()

    def total(self):
        return 0.0
'''}
    assert unreferenced_defs(sources) == ["energy.bulk_term",
                                          "evolution.GaugeState.copy",
                                          "evolution.GaugeState.energy"]


def test_every_public_def_has_a_src_reference():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unreferenced_defs(sources)
    assert not set(found) - set(NO_SRC_CALLER), \
        f"public defs with no reference in src/: {found}"
    assert set(NO_SRC_CALLER) <= set(found), \
        f"allowlisted defs now referenced: {set(NO_SRC_CALLER) - set(found)}"


def scipy_imports(source):
    """Line numbers of the ``import scipy[...]`` and ``from scipy[...]
    import`` statements anywhere in ``source``, function bodies included:
    a run needs numpy alone."""
    def scipy(name):
        return name == "scipy" or name.startswith("scipy.")
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(scipy(alias.name) for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and scipy(node.module))


def test_checker_flags_a_scipy_import():
    source = '''
import scipyish
from . import scipy

def gronwall_envelope(spec):
    from scipy.integrate import IntegrationWarning, quad   # slow import
    import numpy, scipy.special as sp
    return quad(spec.k, spec.t0, spec.t1)
'''
    assert scipy_imports(source) == [6, 7]


def test_src_imports_no_scipy():
    hits = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
            for line in scipy_imports(path.read_text())]
    assert not hits, f"scipy imports in src/: {hits}"


#: the one place a complex value's parts are read: the complex step, and the
#: conversion that lets its complex points through to ``christoffel``
COMPLEX_PARTS_ALLOWED = {("geometry", "as_points"),
                         ("geometry", "christoffel_derivative")}


def complex_parts(source, module):
    """Line numbers of the ``.real`` and ``.imag`` attributes and the
    ``iscomplexobj`` probes in ``source`` outside the functions of
    ``COMPLEX_PARTS_ALLOWED``: every other operator takes real points."""
    tree = ast.parse(source)
    allowed = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               and (module, fn.name) in COMPLEX_PARTS_ALLOWED
               for n in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in allowed
                  and (isinstance(node, ast.Attribute)
                       and node.attr in ("real", "imag", "iscomplexobj")
                       or isinstance(node, ast.Name)
                       and node.id == "iscomplexobj"))


def test_checker_flags_complex_parts():
    source = '''
def as_points(x):
    x = np.asarray(x)
    return x if np.iscomplexobj(x) else x.astype(float, copy=False)

def christoffel_derivative(chart, x):
    return christoffel(chart, x + 1e-20j).imag / 1e-20

def orthonormal_frame(chart, x, time_axis_hint):
    norm2 = _dot(chart.diagonal(x), time_axis_hint, time_axis_hint)
    if np.any(norm2.real >= 0):
        raise FrameError("time axis hint is not timelike")
    return iscomplexobj(norm2), norm2.imag
'''
    assert complex_parts(source, "geometry") == [11, 13, 13]
    assert complex_parts(source, "nullcone") == [4, 7, 11, 13, 13]


def test_complex_parts_only_in_the_complex_step():
    hits = [(path.stem, line) for path in sorted(SRC.glob("*.py"))
            for line in complex_parts(path.read_text(), path.stem)]
    assert not hits, f".real, .imag or iscomplexobj outside the complex " \
                     f"step: {hits}"
