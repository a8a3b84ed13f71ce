"""Eight small AST checks on ``src/kreinlab`` in place of a linter.

Unused imports: the names bound by ``import`` and ``from ... import``
statements in each module, and in each test module under ``tests/``, must
be read by that module.  The package ``__init__.py`` is skipped (its
imports are re-exports), as is ``from __future__``.

Unset defaulted parameters: every parameter with a default must be passed
by some call in ``src/kreinlab``, ``tests/`` or ``perfbench/``; a knob that
no caller sets belongs in a named module constant.  A call passes a
parameter when it sets it by keyword, reaches its position (a ``*args``
reaches every position) or passes a ``**mapping``.  Calls are matched by
function name, and by class name for ``__init__``.

One residual check: an invariant whose violation raises is measured by
``_linalg.check_residual`` or ``_linalg.is_self_adjoint``, not by an ``if``
on ``operator_norm``.  Only ``_linalg.py`` itself and the verification
suite ``verify.py`` (whose checks report residuals) may write one.

Oracles stay out of production: ``kreinlab.oracles`` holds second routes
that production decides another way, so no module except ``verify.py``
may import it.

No matrix inverse: no module calls ``np.linalg.inv``.

One complement per problem: D(T0)^perp is ``PartialContraction.complement``,
so ``orthonormal_complement`` is called only in ``angular.py`` (that
property) and in ``verify.py`` (its independent check that the defect is
the domain complement).

No dead helpers: every top-level function of ``_linalg.py`` is called from
another module of the package; importing it is not enough.

No production code for the oracles alone: no top-level function of a
module other than ``verify.py`` and ``oracles.py`` has ``oracles.py`` as
its only caller in the package; such a route belongs in the oracles.  The
exceptions are the public products that ``oracles.metric_agreement``
measures, which are the first routes it compares its own against.
"""
from __future__ import annotations

import ast
import math
from pathlib import Path

import kreinlab

PACKAGE = Path(kreinlab.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom x import (a, b)\nnp.log(a)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


def _unused_imports_by_file(paths) -> dict[str, list[str]]:
    found = {}
    for path in paths:
        names = unused_imports(path.read_text())
        if names:
            found[path.name] = names
    return found


def test_package_modules_have_no_unused_imports():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert _unused_imports_by_file(paths) == {}


def test_test_modules_have_no_unused_imports():
    assert _unused_imports_by_file(sorted((REPO / "tests").glob("*.py"))) == {}


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted_parameters(module: str, tree: ast.Module):
    """(call name, label, parameter, position or None) per defaulted parameter."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner[item] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(node)
        if cls and node.name == "__init__":
            name, label = cls, f"{module}.{cls}"
        else:
            name, label = node.name, ".".join(filter(None, (module, cls, node.name)))
        static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
        bound = 1 if cls and not static else 0       # self / cls
        args = node.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield name, f"{label}({positional[i].arg})", positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, f"{label}({arg.arg})", arg.arg, None


def unset_defaulted_parameters(modules: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of `modules` (name -> source) that no call in
    `callers` (sources) passes, as sorted ``module.function(parameter)``."""
    calls: dict[str, list[tuple[set, float]]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and (name := _callee(node.func)):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                reach = math.inf if starred else len(node.args)
                calls.setdefault(name, []).append(({k.arg for k in node.keywords}, reach))
    unset = []
    for module, source in modules.items():
        for name, label, param, pos in _defaulted_parameters(module, ast.parse(source)):
            # k.arg is None for a **mapping.
            if not any(param in kws or None in kws or (pos is not None and pos < reach)
                       for kws, reach in calls.get(name, ())):
                unset.append(label)
    return sorted(unset)


def test_unset_defaulted_parameter_detector():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, p=0):\n        pass\n"
        "    @staticmethod\n"
        "    def s(q=0):\n        pass\n"
        "f(0, 5)\nf(0, d=1)\nK(1)\nK.s(2)\nobj.m(**opts)\n"
    )
    assert unset_defaulted_parameters({"mod": source}, [source]) == [
        "mod.K(y)", "mod.f(c)", "mod.f(e)",
    ]
    assert unset_defaulted_parameters({"mod": "def g(a, b=1):\n    pass\n"},
                                      ["h(g, *rest)\n"]) == ["mod.g(b)"]
    assert unset_defaulted_parameters({"mod": "def g(a, b=1):\n    pass\n"},
                                      ["g(*rest)\n"]) == []


def test_no_unset_defaulted_parameters():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = [path.read_text()
               for folder in (PACKAGE, REPO / "tests", REPO / "perfbench")
               for path in sorted(folder.glob("*.py"))]
    assert unset_defaulted_parameters(modules, callers) == []


def _reads_norm(node: ast.AST, names: set[str]) -> bool:
    return any((isinstance(n, ast.Call) and _callee(n.func) == "operator_norm")
               or (isinstance(n, ast.Name) and n.id in names) for n in ast.walk(node))


def norm_threshold_raises(source: str) -> list[int]:
    """Lines of the ``if`` statements whose test reads an ``operator_norm``
    value (a call, or a local name assigned one) and whose body raises."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {target.id for node in ast.walk(func)
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                 and _callee(node.value.func) == "operator_norm"
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if (isinstance(node, ast.If) and _reads_norm(node.test, names)
                    and any(isinstance(n, ast.Raise)
                            for stmt in node.body for n in ast.walk(stmt))):
                lines.add(node.lineno)
    return sorted(lines)


def test_norm_threshold_raise_detector():
    source = (
        "def f(a, b):\n"
        "    if operator_norm(a) > 1e-10:\n"            # 2: flagged
        "        raise ValueError('a')\n"
        "    r = la.operator_norm(b)\n"
        "    if r > tol * max(1.0, s):\n"               # 5: flagged
        "        raise ValueError(f'{r}')\n"
        "    if h(b) > tol * max(1.0, operator_norm(b)):\n"   # 7: flagged
        "        raise ValueError('b')\n"
        "    if operator_norm(a) < floor:\n"            # returns: not flagged
        "        return 'A'\n"
        "    self.norm = operator_norm(a)\n"
        "    if self.norm > 1.0:\n"                     # stored value: not flagged
        "        raise ValueError('norm')\n"
        "    flag = bool(operator_norm(a) <= tol)\n"
        "    if flag != other:\n"                       # a verdict: not flagged
        "        raise ValueError('routes')\n"
        "    check_residual('a', a, tol)\n"
    )
    assert norm_threshold_raises(source) == [2, 5, 7]


def test_invariant_checks_use_the_residual_helpers():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("_linalg.py", "verify.py"):
            lines = norm_threshold_raises(path.read_text())
            if lines:
                found[path.name] = lines
    assert found == {}


def imports_oracles(source: str) -> bool:
    """True if a package module imports kreinlab.oracles, in any spelling."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("kreinlab.oracles") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package starts at kreinlab
            module = ".".join(filter(None, ("kreinlab" if node.level else "", node.module)))
            if module == "kreinlab.oracles" or (
                    module == "kreinlab" and any(a.name == "oracles" for a in node.names)):
                return True
    return False


def test_oracle_import_detector():
    for source in ("from . import oracles\n", "from . import serialize, oracles\n",
                   "from .oracles import rank_extremality\n",
                   "from kreinlab import oracles as o\n",
                   "from kreinlab.oracles import sqrt_projection_endpoints\n",
                   "import kreinlab.oracles\n"):
        assert imports_oracles(source), source
    for source in ("from . import extensions\n", "from .extensions import krein_interval\n",
                   "import oracles\n", "from kreinlab import verify\n"):
        assert not imports_oracles(source), source


def test_only_verify_imports_the_oracles():
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if imports_oracles(path.read_text())]
    assert found == ["verify.py"]


def calls_to(source: str, name: str) -> list[int]:
    """Lines of the calls to `name`, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _callee(node.func) == name)


def test_call_detector():
    source = ("from ._linalg import orthonormal_complement\n"
              "e = orthonormal_complement(d)\n"
              "f = _linalg.orthonormal_complement(u)\n"
              "g = orthonormal_complement\n"
              "h = orthonormal_columns(d)\n")
    assert calls_to(source, "orthonormal_complement") == [2, 3]
    assert calls_to(source, "orthonormal_columns") == [5]


def test_domain_complement_is_taken_only_by_the_property():
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if calls_to(path.read_text(), "orthonormal_complement")]
    assert found == ["angular.py", "verify.py"]


def test_no_module_inverts_a_matrix():
    # Every inverse is a solve, a factorization or a spectral form.
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if calls_to(path.read_text(), "inv")]
    assert found == []


def uncalled_functions(source: str, callers: list[str]) -> list[str]:
    """Top-level functions of `source` that no call in `callers` makes,
    bare or as an attribute."""
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    called = {_callee(node.func) for caller in callers for node in ast.walk(ast.parse(caller))
              if isinstance(node, ast.Call)}
    return sorted(defined - called)


def test_uncalled_function_detector():
    source = ("def hermitize(a):\n    return a\n"
              "def eig_min_herm(a):\n    return hermitize(a)\n"
              "def helper(a):\n    return a\n"
              "class K:\n    def method(self):\n        pass\n")
    callers = ["from ._linalg import eig_min_herm, hermitize\n"
               "t = hermitize(a)\nf = eig_min_herm\nk.method()\n",
               "u = _linalg.helper(a)\n"]
    assert uncalled_functions(source, callers) == ["eig_min_herm"]
    assert uncalled_functions(source, callers + ["eig_min_herm(t)\n"]) == []


def test_linalg_helpers_are_called_from_other_modules():
    callers = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "_linalg.py"]
    assert uncalled_functions((PACKAGE / "_linalg.py").read_text(), callers) == []


# The public products that oracles.metric_agreement checks: in the package
# only the oracles call them, as the first routes they compare against.
MEASURED_BY_THE_ORACLES = {"g_inner", "jg_product", "indefinite_product"}


def test_no_production_function_is_called_only_by_the_oracles():
    oracle = (PACKAGE / "oracles.py").read_text()
    others = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "oracles.py"]
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("verify.py", "oracles.py"):
            source = path.read_text()
            only = (set(uncalled_functions(source, others)) - MEASURED_BY_THE_ORACLES
                    - set(uncalled_functions(source, [oracle])))
            if only:
                found[path.name] = sorted(only)
    assert found == {}
