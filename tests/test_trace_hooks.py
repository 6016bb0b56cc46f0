"""The benchmark's trace hooks must name functions the package still has,
the package imports no name but what it reads or a hook wraps, and no
function of it takes a parameter that it does not read.

``bench/spans.py`` wraps each ``(module, attribute)`` in ``PATCHES``; an
attribute that no longer exists fails every traced benchmark run.
"""

import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from exactsi import errors

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_trace_hook_resolves():
    missing = []
    for module_name, attr, _ in load_patches():
        owner = importlib.import_module(module_name)
        *parents, leaf = attr.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"trace hooks name missing attributes: {missing}"


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exactsi"
TESTS = Path(__file__).resolve().parent


def unread_imports(source: str) -> list[str]:
    """The names a module's imports bind that it never reads (as a loaded
    name) and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unread_imports_are_trace_hooks():
    """Every name a package or test module imports is read there, listed in
    its ``__all__``, or wrapped there by a trace hook: an import kept only
    for the hooks goes when its hook does."""
    hooked = {(module, attr.split(".")[0]) for module, attr, _ in load_patches()}
    modules = [(f"exactsi.{path.stem}", path) for path in sorted(PACKAGE.glob("*.py"))]
    modules += [(f"tests.{path.stem}", path) for path in sorted(TESTS.glob("*.py"))]
    stray = [
        f"{module}: {name}"
        for module, path in modules
        for name in unread_imports(path.read_text(encoding="utf-8"))
        if (module, name) not in hooked
    ]
    assert not stray, f"imports neither read nor hooked: {stray}"


def test_unread_import_is_found():
    source = "import numpy as np\nfrom math import pi, tau\nx = np.sqrt(pi)\n"
    assert unread_imports(source) == ["tau"]
    assert unread_imports(source + "__all__ = ['tau']\n") == []


# The modules that may name each factor primitive.  ``selection`` owns every
# factor of a Gram block or of the randomization base (``Dataset.factor`` and
# ``checked_factor``); ``conditioning`` factors the free-block precision,
# which is neither.  Only ``try_cho_factor`` decides that Cholesky failed.
FACTOR_PRIMITIVES = {
    "cho_factor": {"numerics"},
    "try_cho_factor": {"numerics", "selection"},
    "scaled_rcond": {"numerics", "selection"},
    "check_conditioning": {"numerics", "selection"},
    "factor_spd": {"numerics", "selection", "conditioning"},
}


def identifiers(node: ast.AST) -> set[str]:
    """The identifiers one node names itself: a name, an attribute, an
    import's names or a definition's name."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname} - {None}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    return set()


def named(source: str) -> set[str]:
    """Every identifier a module names: its names, attributes, imports and
    definitions (not its strings)."""
    return set().union(*map(identifiers, ast.walk(ast.parse(source))))


def test_one_module_owns_the_gram_factors():
    """No stage but the dataset factors or checks a Gram block: a later stage
    that grew its own factor of a Gram would name one of these primitives."""
    stray = sorted(
        f"exactsi.{path.stem}: {name}"
        for path in PACKAGE.glob("*.py")
        for name in named(path.read_text(encoding="utf-8")) & FACTOR_PRIMITIVES.keys()
        if path.stem not in FACTOR_PRIMITIVES[name]
    )
    assert not stray, f"factor primitives named outside their owners: {stray}"


# Only these modules read the factor of the randomization base: ``selection``
# draws from it and ``conditioning`` makes every solve with Omega.  The pivot
# constants of ``inference`` read only the geometry's per-target vectors.
BASE_FACTOR_OWNERS = {"selection", "conditioning"}
OMEGA_NAMES = {"omega_solve", "base_factor", "Theta", "tau2"}


def base_factor_calls(source: str) -> list[str]:
    """The calls of a module that read the randomization base's factor:
    ``factor`` or ``checked_factor`` with no columns or columns None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and identifiers(node.func) & {"factor", "checked_factor"}:
            cols = [k.value for k in node.keywords if k.arg == "cols"] + node.args[:1]
            if not cols or (isinstance(cols[0], ast.Constant) and cols[0].value is None):
                found.append(ast.unparse(node))
    return found


def test_one_module_solves_with_omega():
    """The randomization base's factor is read only where the draw and the
    Omega solves are made, and ``inference`` names no Omega solve, factor of
    the base, Theta or tau2: the pivot constants add the noise to what the
    geometry hands on, so a second owner of Omega cannot grow back."""
    stray = sorted(
        f"exactsi.{path.stem}: {call}"
        for path in PACKAGE.glob("*.py")
        for call in base_factor_calls(path.read_text(encoding="utf-8"))
        if path.stem not in BASE_FACTOR_OWNERS
    )
    assert not stray, f"the base's factor read outside its owners: {stray}"
    inference = named((PACKAGE / "inference.py").read_text(encoding="utf-8"))
    assert sorted(inference & OMEGA_NAMES) == []


def test_base_factor_calls_are_found():
    source = (
        "a = data.factor()\nb = data.factor(cols)\nc = d.checked_factor(None, 'B', E)\n"
        "e = d.checked_factor(E, 'G', E)\nf = factor(cols=None)\ng = cho_factor(m)\n"
    )
    assert base_factor_calls(source) == [
        "data.factor()", "d.checked_factor(None, 'B', E)", "factor(cols=None)",
    ]


def owned_nodes(source: str) -> list[tuple[str, ast.AST]]:
    """``(function, node)`` for each node of a module, in source order: the
    innermost function around it (``<module>`` at the top level; a
    definition belongs to the function around it)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            found.append((owner, child))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), "<module>")
    return found


def except_clauses(source: str) -> list[tuple[str, set[str]]]:
    """``(function, names)`` for each ``except`` clause of a module: the
    innermost function around it and the identifiers of the classes it
    catches (``BaseException`` if bare)."""
    return [
        (owner, named(ast.unparse(node.type)) if node.type else {"BaseException"})
        for owner, node in owned_nodes(source)
        if isinstance(node, ast.ExceptHandler)
    ]


def test_one_error_policy_in_the_pipeline():
    """Within ``exactsi.study`` only ``fit_method`` (an error that stops a
    fit) and ``_per_target`` (one that stops an elementwise call) catch an
    ``ExactSIError``: every caller reads the errors of its fits, so a third
    error policy cannot grow back.  A clause counts if it names the class,
    one of its bases or one of the package's error classes."""
    catching = {cls.__name__ for cls in errors.ExactSIError.__mro__}
    catching |= {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ExactSIError)
    }
    source = (PACKAGE / "study.py").read_text(encoding="utf-8")
    owners = [owner for owner, caught in except_clauses(source) if caught & catching]
    assert sorted(owners) == ["_per_target", "fit_method"]


def test_except_clauses_are_found():
    source = (
        "try:\n    a()\nexcept:\n    pass\n"
        "def f():\n    def g():\n        try:\n            b()\n"
        "        except (m.E, F):\n            pass\n"
        "    try:\n        c()\n    except G as exc:\n        pass\n"
    )
    assert except_clauses(source) == [
        ("<module>", {"BaseException"}), ("g", {"m", "E", "F"}), ("f", {"G"}),
    ]


def ridge_rules(source: str) -> tuple[list[str], set[str]]:
    """The ``epsilon`` passed by each ``calibrate`` call of a module, as
    source text, and the functions that name ``default_epsilon`` (imports
    aside)."""
    passed, owners = [], set()
    for owner, node in owned_nodes(source):
        if isinstance(node, ast.Call) and "calibrate" in identifiers(node.func):
            passed += [ast.unparse(k.value) for k in node.keywords if k.arg == "epsilon"]
        if "default_epsilon" in identifiers(node) and not isinstance(node, ast.alias):
            owners.add(owner)
    return passed, owners


def test_one_rule_decides_the_ridge():
    """``calibrate`` decides the ridge term of the exact method's lasso for
    every command: no call of it in the package passes ``epsilon`` but the
    user's own ``--epsilon``, and only ``selection`` (the definition) and
    ``study.calibrate`` name ``default_epsilon``.  The study and the
    uniformity check once passed ``epsilon=0.0``, and so checked a lasso
    that ``infer`` never fits at p >= n."""
    passed, owners = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        calls, names = ridge_rules(path.read_text(encoding="utf-8"))
        passed += calls
        owners |= {(path.stem, owner) for owner in names}
    assert set(passed) == {"args.epsilon"}
    assert owners == {("selection", "<module>"), ("study", "calibrate")}


def test_ridge_rules_are_found():
    source = (
        "from m import default_epsilon\n"
        "def default_epsilon():\n    pass\n"
        "def f(args):\n    def g():\n        return m.default_epsilon(d)\n"
        "    calibrate(d, epsilon=0.0)\n    study.calibrate(d, rho=1, epsilon=args.epsilon)\n"
        "    calibrate_all(d, epsilon=1.0)\n"
    )
    assert ridge_rules(source) == (["0.0", "args.epsilon"], {"<module>", "g"})


# The classes of an argument error, which the call that breaks a rule raises.
ARGUMENT_ERRORS = {"InvalidArgumentError", "InvalidSchemeError"}


def message_head(message: ast.expr) -> str:
    """An error message's head: its text up to the first ", ", with each
    formatted value as ``{}`` and a flag's leading ``--`` dropped."""
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    text = "".join(str(part.value) if isinstance(part, ast.Constant) else "{}" for part in parts)
    return text.replace("--", "").split(", ")[0]


def argument_error_heads(source: str) -> list[tuple[str, str]]:
    """``(owner, head)`` for each argument error a module builds with a
    message, in source order: the top-level function or class around the
    call (``<module>`` at the top level) and the message's head."""
    return [
        (getattr(top, "name", "<module>"), message_head(node.args[0]))
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and identifiers(node.func) & ARGUMENT_ERRORS and node.args
    ]


def test_one_owner_per_argument_rule():
    """No argument error's message head is built in two top-level functions
    or classes of the package.  Each argument rule (an unknown model, the
    corr domain, a method's options, the ridge sign, tau2 > 0, the methods
    that the uniformity check tests) has one owner that every caller calls,
    so two copies of a rule cannot drift apart."""
    owners = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, head in argument_error_heads(path.read_text(encoding="utf-8")):
            owners[head].add(f"exactsi.{path.stem}.{owner}")
    shared = {head: sorted(names) for head, names in owners.items() if len(names) > 1}
    assert not shared, f"argument rules built in more than one place: {shared}"


def split_share_roundings(source: str) -> list[str]:
    """The function around each call of a module that rounds a split share:
    a ``round`` (or numpy ``round``, ``rint``, ``around``) whose arguments
    name ``rho``."""
    return [
        owner
        for owner, node in owned_nodes(source)
        if isinstance(node, ast.Call)
        and identifiers(node.func) & {"round", "rint", "around"}
        and any("rho" in identifiers(sub) for arg in node.args for sub in ast.walk(arg))
    ]


def test_one_owner_rounds_the_split_share():
    """Only ``inference.split_size`` turns a share ``rho`` of the rows into a
    row count: the config check, the calibration's tau2, the uniformity
    check's tau2 and data splitting's subsample all call it, so the rows
    that tau2 is matched to cannot drift from those that split selects on.
    Each of those four once rounded ``rho * n`` itself."""
    owners = sorted(
        f"exactsi.{path.stem}.{owner}"
        for path in PACKAGE.glob("*.py")
        for owner in split_share_roundings(path.read_text(encoding="utf-8"))
    )
    assert owners == ["exactsi.inference.split_size"]


def test_split_share_roundings_are_found():
    source = (
        "def f(n, rho):\n    return int(round(rho * n))\n"
        "class C:\n    def g(self):\n        return np.round(self.rho * self.n)\n"
        "def h(cfg):\n    return round(cfg.p / 2), math.floor(cfg.rho)\n"
        "k = np.rint(config.rho * 300)\n"
    )
    assert split_share_roundings(source) == ["f", "g", "<module>"]


def test_argument_error_heads_are_found():
    source = (
        "def f(x):\n    if x:\n        raise InvalidArgumentError(f'--x must be > 0, not {x!r}')\n"
        "    def g():\n        return errors.InvalidSchemeError('tau2 must be positive')\n"
        "class C:\n    def h(self, n):\n        raise InvalidArgumentError(f'{n} rows: 2 ok')\n"
        "raise ValueError('other')\nInvalidArgumentError()\n"
        "raise InvalidArgumentError('top, level')\n"
    )
    assert argument_error_heads(source) == [
        ("f", "x must be > 0"), ("f", "tau2 must be positive"), ("C", "{} rows: 2 ok"),
        ("<module>", "top"),
    ]


def test_named_identifiers_are_found():
    source = (
        "from m import a as b\nimport c\nx.d(e)\nclass F:\n    def g(self): 'h'\n"
    )
    assert named(source) == {"a", "b", "c", "x", "d", "e", "F", "g"}


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a function or lambda
    that its body never reads (as a loaded name); a read in a nested
    function counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        label = getattr(node, "name", "<lambda>")
        unread += [f"{label}.{name}" for name in names if name not in read]
    return unread


# Parameters kept unread, each with its reason.
UNREAD_PARAMETERS = {
    # the benchmark's scorer (bench/workloads.py) passes it by position
    ("exactsi.study", "true_projected_target.E_star"),
}


def test_every_parameter_is_read():
    """No function of the package accepts a value it does not read: such a
    parameter makes every caller compute and pass what nothing uses."""
    unread = {
        (f"exactsi.{path.stem}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unread_parameters(path.read_text(encoding="utf-8"))
    }
    assert unread == UNREAD_PARAMETERS


def test_unread_parameter_is_found():
    source = (
        "def f(a, b, *c, d=1, **e):\n    def g():\n        return a + d\n    b = 2\n"
        "h = lambda x, y: x\n"
    )
    assert unread_parameters(source) == ["f.b", "f.c", "f.e", "<lambda>.y"]


# The stages of a fit's targets, which only ``exactsi.study`` calls: every
# method selects first, and ``fit_method`` then builds its targets.
TARGET_STAGES = {
    "build_target", "build_geometry", "pivot_params", "polyhedral_bounds", "untruncated_bounds",
}


def called(source: str) -> set[str]:
    """The names a module calls, directly or as an attribute."""
    return {
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for name in identifiers(node.func)
    }


def test_only_the_pipeline_builds_targets():
    """Inside the package only ``exactsi.study`` calls a target stage, so
    every method's targets are built on one path after its selection.
    Split and uv once built their targets inside their own selection."""
    stray = sorted(
        f"exactsi.{path.stem}: {name}"
        for path in PACKAGE.glob("*.py")
        for name in called(path.read_text(encoding="utf-8")) & TARGET_STAGES
        if path.stem != "study"
    )
    assert not stray, f"target stages called outside exactsi.study: {stray}"


def test_called_names_are_found():
    source = "a(b)\nc.d(e.f)\ng = h\nk.m()(n)\n"
    assert called(source) == {"a", "d", "m"}


# The hooks that a small study and one ``infer`` call must reach: every
# ``exactsi.study`` entry, and these outside it.
REACHED_OUTSIDE_STUDY = {
    ("exactsi.inference", "invert_monotone"),
    ("exactsi.inference", "solve_randomized_lasso"),
    ("exactsi.cli", "read_csv_dataset"),
}


def test_trace_hooks_fire(monkeypatch, tmp_path):
    """Each of these hooked names is still called through the namespace the
    hook patches.  A stage that captured one at import (a default argument,
    a module-level alias) would run unhooked, and its layer metric would
    read 0 in every traced benchmark run without failing it."""
    import numpy as np

    from exactsi import cli, study

    hooks = [
        (module, attr) for module, attr, _ in load_patches()
        if module == "exactsi.study" or (module, attr) in REACHED_OUTSIDE_STUDY
    ]
    assert REACHED_OUTSIDE_STUDY <= set(hooks)
    calls = {f"{module}.{attr}": 0 for module, attr in hooks}
    for module, attr in hooks:
        owner = importlib.import_module(module)

        def counted(*args, _real=getattr(owner, attr), _key=f"{module}.{attr}", **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    summary = study.run_study(
        study.SimConfig(n=100, p=10, n_reps=3, methods=study.KNOWN_METHODS, seed=1)
    )
    assert all(m.n_used == 3 for m in summary.methods.values())
    rng = np.random.default_rng(2)
    X = rng.standard_normal((80, 6))
    y = X[:, :2] @ [3.0, -3.0] + rng.standard_normal(80)
    path = tmp_path / "small.csv"
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
               header=",".join(["y"] + [f"x{j}" for j in range(6)]), comments="")
    argv = ["infer", "--input", str(path), "--rho", "0.8", "--method", "exact",
            "--method", "polyhedral", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert [name for name, count in calls.items() if not count] == []
