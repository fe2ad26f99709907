"""Static checks over the package source."""

import ast
import pathlib

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
