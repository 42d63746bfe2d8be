"""The package namespace: exactly the public names of its layer modules."""

import ast
import dataclasses
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import sendovlab

# Modules kept outside the package namespace: the experiment driver and
# its JSON codec are reached as sendovlab.cli and sendovlab.serialize.
_OUTSIDE = {"__init__", "cli", "serialize"}


def test_package_reexports_each_layer_all():
    root = Path(sendovlab.__file__).parent
    layers = [
        importlib.import_module(f"sendovlab.{path.stem}")
        for path in sorted(root.glob("*.py"))
        if path.stem not in _OUTSIDE
    ]
    assert {"sendovlab.rootfind", "sendovlab.contour"} <= {m.__name__ for m in layers}
    declared = [name for module in layers for name in module.__all__]
    # a name in two modules would be shadowed silently by the star imports
    assert sorted(name for name, k in Counter(declared).items() if k > 1) == []
    assert sorted(sendovlab.__all__) == sorted(["__version__", *declared])
    for module in layers:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(sendovlab, name) is obj, name
            assert obj.__module__ == module.__name__, name


def _public_surface():
    """Every exported name, and Class.member for each public member or field of a class."""
    names = set(sendovlab.__all__) - {"__version__"}
    for name in sendovlab.__all__:
        obj = getattr(sendovlab, name)
        if inspect.isclass(obj):
            members = {m for m in vars(obj) if not m.startswith("_")}
            if dataclasses.is_dataclass(obj):
                members |= {f.name for f in dataclasses.fields(obj)}
            names |= {f"{name}.{m}" for m in members}
    return names


def _loads(tree):
    """(names, attributes) that the tree reads: Name and Attribute nodes in Load context."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def _uncalled(surface, texts):
    """The names of surface that no text reads.

    A top-level name counts when it is read as a name or an attribute;
    Class.member only when some attribute load reads .member, so neither
    a field's declaration nor a local variable of the same name counts.
    """
    names, attrs = set(), set()
    for text in texts:
        n, a = _loads(ast.parse(text))
        names |= n
        attrs |= a
    return sorted(
        name
        for name in surface
        if name.rsplit(".", 1)[-1] not in attrs and ("." in name or name not in names)
    )


# A dataclass field that is declared, set by its constructor, written as
# an attribute and shadowed by a local variable, but never read: the scan
# must report it.
_WRITE_ONLY_FIELD = """
from dataclasses import dataclass


@dataclass
class Report:
    worst: float
    kept: float


def build(xs):
    worst = max(xs)
    report = Report(worst=worst, kept=min(xs))
    report.worst = worst
    return report.kept
"""


def test_every_public_name_has_a_caller():
    # a public name, and each public member or dataclass field of an
    # exported class, must be read by the package, a demo, an acceptance
    # criterion or the benchmark harness; its own unit tests do not count
    # as callers, and a field is read only by an attribute load
    assert _uncalled({"Report", "Report.worst", "Report.kept"}, [_WRITE_ONLY_FIELD]) == [
        "Report.worst"
    ]
    root = Path(sendovlab.__file__).parent
    repo = root.parents[1]
    sources = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((repo / "demos").glob("*.py"))
    sources.append(repo / "tests" / "test_acceptance.py")
    sources += sorted((repo / "bench").glob("*.py"))
    surface = _public_surface()
    assert {"Polynomial.monic", "EmpiricalMeasure.weights"} <= surface
    assert {"zero_sets", "certified", "critical_points"} <= surface
    assert _uncalled(surface, [p.read_text() for p in sources]) == []


def _exported_functions():
    """(qualified name, FunctionDef) for each exported function and each method of an exported class."""
    out = []
    for name in sendovlab.__all__:
        obj = getattr(sendovlab, name)
        if inspect.isfunction(obj):
            out.append((name, ast.parse(inspect.getsource(obj)).body[0]))
        elif inspect.isclass(obj):
            cls = ast.parse(inspect.getsource(obj)).body[0]
            out += [(f"{name}.{m.name}", m) for m in cls.body if isinstance(m, ast.FunctionDef)]
    return out


def test_every_exported_parameter_is_read():
    # a parameter that its function never reads is one that every caller
    # passes for nothing
    functions = _exported_functions()
    assert {"degot_suite", "CircleDensity.mean"} <= {qualname for qualname, _ in functions}
    unread = []
    for qualname, fn in functions:
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        names, _ = _loads(ast.Module(body=fn.body, type_ignores=[]))
        unread += [
            f"{qualname}({p.arg})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in names
        ]
    assert sorted(unread) == []


def _defaulted_parameters(path):
    """(qualified name, function name, positional index or None, parameter) per defaulted parameter.

    Module-level functions and class methods only; a method's positional
    index does not count self or cls, which a call does not pass.
    """
    tree = ast.parse(path.read_text())
    defs = [(node.name, False, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(f"{cls.name}.{m.name}", True, m) for m in cls.body if isinstance(m, ast.FunctionDef)]
    out = []
    for qualname, method, fn in defs:
        positional = fn.args.posonlyargs + fn.args.args
        bound = method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
        )
        first = len(positional) - len(fn.args.defaults)
        for i in range(first, len(positional)):
            out.append((qualname, fn.name, i - bound, positional[i].arg))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                out.append((qualname, fn.name, None, arg.arg))
    return out


def test_every_defaulted_parameter_has_a_caller():
    # a parameter with a default that no caller sets is a module constant:
    # each must be passed, by keyword or by position, by some call of its
    # function's name in the package, a demo or an acceptance criterion
    root = Path(sendovlab.__file__).parent
    sources = sorted(root.glob("*.py")) + sorted((root.parents[1] / "demos").glob("*.py"))
    sources.append(root.parents[1] / "tests" / "test_acceptance.py")
    passed = {}  # function name -> (most positional arguments, keywords)
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count, keywords = passed.get(name, (0, set()))
            count = max(count, float("inf") if starred else len(node.args))
            passed[name] = (count, keywords | {k.arg for k in node.keywords})
    params = [entry for path in sorted(root.glob("*.py")) for entry in _defaulted_parameters(path)]
    assert ("certified", "certified", 1, "what") in params
    unset = []
    for qualname, name, index, param in params:
        count, keywords = passed.get(name, (0, set()))
        if param not in keywords and (index is None or count <= index):
            unset.append(f"{qualname}({param})")
    # the console-script entry point is called with no arguments
    assert sorted(set(unset) - {"main(argv)"}) == []


def test_layers_take_their_root_sets():
    # roots are solved only where the lab builds its root sets; a layer
    # takes its zeros and critical points as required arguments and only
    # checks their certificates
    root = Path(sendovlab.__file__).parent
    for name in ("sendov_check", "measures", "potential", "contour"):
        tree = ast.parse((root / f"{name}.py").read_text())
        imported = set()
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (None, "rootfind"):
                imported |= {
                    alias.name
                    for alias in node.names
                    if node.module == "rootfind" or alias.name == "rootfind"
                }
            elif isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
        assert imported <= {"RootSet", "certified"}, name
        assert called & {"find_roots", "zero_sets", "critical_points"} == set(), name
        module = importlib.import_module(f"sendovlab.{name}")
        defaulted = [
            f"{name}.{fn.__name__}({param.name})"
            for fn in vars(module).values()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            for param in inspect.signature(fn).parameters.values()
            if "RootSet" in str(param.annotation) and param.default is not param.empty
        ]
        assert defaulted == []


def test_no_assert_in_the_package():
    # a failed check raises CrossCheckError: an assert statement vanishes
    # under python -O, and AssertionError escapes the CLI's error report
    root = Path(sendovlab.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (isinstance(node, ast.Name) and node.id == "AssertionError") or (
                isinstance(node, ast.Attribute) and node.attr == "AssertionError"
            )
            if isinstance(node, ast.Assert) or named:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _inline_tolerances(text):
    """Lines of the float literals 0 < |x| < 1e-6 that no module-level constant holds.

    A module-level constant is a top-level assignment to upper-case
    names, one name or a tuple of them, as in ``_A, _B = 1e-8, 1e-9``.
    """
    tree = ast.parse(text)
    held = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        names = [n for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
        if all(isinstance(name, ast.Name) and name.id.isupper() for name in names):
            held |= {id(node) for node in ast.walk(stmt)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (float, complex))
        and 0 < abs(node.value) < 1e-6
        and id(node) not in held
    )


# Small literals held by module-level constants, in every accepted form, and
# four that are not: a lower-case module name, a local and two inline ones.
_INLINE_TOLERANCE = """
_TOL = 1e-12
_SLACK, _FLOOR = 1e-10, 1e-300
_SCALE: float = 2.0 * 1e-9
lowered = 1e-9


def near(x, y):
    tiny = 1e-9
    return abs(x - y) <= _TOL + 1e-9 or x == -1e-8j or abs(x) > 1e-3
"""


def test_every_small_tolerance_is_a_named_constant():
    # a rounding tolerance below 1e-6 is written once, as a module
    # constant with its reason, not inline at the test that uses it
    assert _inline_tolerances(_INLINE_TOLERANCE) == [5, 9, 10, 10]
    root = Path(sendovlab.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(root.glob("*.py"))
        for line in _inline_tolerances(path.read_text())
    ]
    assert found == []


def test_version_matches_pyproject():
    # read by pattern: tomllib needs Python 3.11, and the package supports 3.10
    pyproject = (Path(sendovlab.__file__).parents[2] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', pyproject, re.M) == [sendovlab.__version__]
