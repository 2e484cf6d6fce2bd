"""Static hygiene of the package source: no dead imports, no unread
parameters, no isinstance tests against a family class, no public
tolerance knob; and of the tests: no pytest.approx that states rel
without abs.

The checks walk the stdlib ast of every module under src/orlicz.  A
parameter that no body reads is a knob that changes no result, and an
import that nothing uses is dead code.  A fact about a loss family lives
on the family, as an attribute or method; an isinstance test against a
family class, in any module, is a second copy of such a fact.  Any of
these fails the suite.  pytest.approx keeps its default abs=1e-12 when
only rel is given, so such a check near 1 pins nothing finer than 1e-12
whatever rel says.
"""

import ast
import inspect
from pathlib import Path

import orlicz
from orlicz.functions import BUILTIN_FAMILIES

SRC = Path(__file__).resolve().parents[1] / "src" / "orlicz"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
FAMILY_NAMES = {cls.__name__ for cls in BUILTIN_FAMILIES}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node: ast.AST) -> set[str]:
    """Names loaded (or updated in place) anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
            out.add(sub.target.id)
    return out


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _read_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _is_abstract(fn: ast.AST) -> bool:
    for dec in fn.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
        if name == "abstractmethod":
            return True
    return False


def _unread_parameters(tree: ast.Module) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_abstract(fn):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = set()
        for stmt in fn.body:
            read |= _read_names(stmt)
        for p in params:
            if p.arg not in ("self", "cls") and p.arg not in read:
                out.append(f"{fn.name}({p.arg}) at line {fn.lineno}")
    return out


def test_source_tree_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "duality.py", "premium.py"}


def test_no_unused_imports():
    found = {
        path.name: bad
        for path in MODULES
        if path.name != "__init__.py" and (bad := _unused_imports(_tree(path)))
    }
    assert not found, f"imported but never used: {found}"


def test_every_parameter_is_read():
    found = {path.name: bad for path in MODULES if (bad := _unread_parameters(_tree(path)))}
    assert not found, f"parameters that no body reads: {found}"


def _family_isinstance_calls(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        classes = node.args[1]
        elts = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        names = {getattr(e, "id", None) or getattr(e, "attr", None) for e in elts}
        if names & FAMILY_NAMES:
            out.append(f"line {node.lineno}: {sorted(names & FAMILY_NAMES)}")
    return out


def test_no_module_tests_a_family_class():
    found = {path.name: bad for path in MODULES if (bad := _family_isinstance_calls(_tree(path)))}
    assert not found, f"isinstance against a family class: {found}"


def test_duality_imports_no_family_class():
    imported = {
        alias.name
        for node in ast.walk(_tree(SRC / "duality.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & FAMILY_NAMES


def _public_callables():
    """(name, function) for every function in orlicz.__all__ and every
    public method of a class there; a dataclass's generated __init__ is a
    dunder, so a report's fields (GGCounterexampleReport.tol, the margin
    it certified) are not parameters here."""
    for name in orlicz.__all__:
        obj = getattr(orlicz, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in inspect.getmembers(obj, inspect.isfunction):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", fn


def test_no_public_callable_takes_tol():
    # every premium closes to adjacent floats and the HG window polish has
    # one scale-free width, so no result is left for a caller's tol to set
    callables = dict(_public_callables())
    assert {"hg_risk_measure", "orlicz_premium", "PiecewiseLinear.derivative"} <= set(callables)
    found = [name for name, fn in callables.items() if "tol" in inspect.signature(fn).parameters]
    assert not found, f"public callables that take tol: {found}"


def test_ladder_helpers_stay_deleted():
    import orlicz.duality as duality
    import orlicz.functions as functions
    import orlicz.hg as hg
    import orlicz.premium as premium

    assert not hasattr(premium, "expected_cash_behavior")
    assert not hasattr(functions, "kink_slopes")
    # the numeric searches that closed forms and knots replaced
    assert not hasattr(functions, "_conjugate_numeric")
    assert not hasattr(duality, "_conjugate_dual_min")
    assert not {"_sample_xs", "_midpoint_flag"} & set(vars(functions.PiecewiseLinear))
    # the second description of a piecewise-linear Phi, which knots replaced
    assert not hasattr(duality, "_kinked_dual_min")
    assert not {"_kinked_linear_conjugate", "_validate_on_grid"} & set(vars(functions))
    families = (functions.OrliczFunction,) + functions.BUILTIN_FAMILIES
    assert not [cls.__name__ for cls in families if hasattr(cls, "kink_slopes")]
    assert not {"expected_cash_behavior", "kink_slopes"} & set(orlicz.__all__)
    # the left-extending HG sweep, which the linear tail of a knotted Phi replaced
    assert not {"MAX_EXTENSIONS", "EDGE_EPS"} & set(vars(hg))
    # the grid polish for a concave premium, which the atoms route replaced
    assert not hasattr(hg, "_refine_min")
    # a one-line wrapper over phi.validation
    assert not hasattr(functions, "validate") and "validate" not in orlicz.__all__
    # the two walks of the exact L^p-quantile that _lp_quantile_exact
    # replaced, and the quantile route's own size cutoff, now VECTOR_MIN
    walks = {"_expectile_signed", "_expectile_sweep", "_lp2_exact", "_lp2_sweep"}
    assert not (walks | {"QUANTILE_ARRAY_MIN"}) & set(vars(premium))
    # the second law loop, which prob.merged_law replaced, and gexpectile's
    # own solver, which the one log-branch solver replaced
    assert not {"_aggregate", "_geometric_expectile"} & set(vars(premium))
    # gm is the a = b = 1 member of the log-branch loss: it states no Phi of its own
    own = set(vars(functions.GeometricMean))
    assert not {"__call__", "derivative", "at_zero", "convex_flag", "ga_convex_flag"} & own
    # the tolerance check of hg_risk_measure's tol, which the scale-free
    # window polish replaced
    import orlicz.base as base

    assert not {"check_tol", "ToleranceError"} & (set(vars(base)) | set(orlicz.__all__))


def _approx_rel_without_abs(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg for k in node.keywords}
        # approx(expected, rel, abs, ...) also takes rel and abs by position
        rel = "rel" in keywords or len(node.args) >= 2
        has_abs = "abs" in keywords or len(node.args) >= 3
        if name == "approx" and rel and not has_abs:
            out.append(f"line {node.lineno}")
    return out


def test_approx_with_rel_states_abs():
    assert "test_duality.py" in {p.name for p in TESTS}
    found = {path.name: bad for path in TESTS if (bad := _approx_rel_without_abs(_tree(path)))}
    assert not found, f"pytest.approx with rel but no abs (abs=1e-12 is then implied): {found}"
