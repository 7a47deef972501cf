"""Rules on the library source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pbelyi

SOURCES = sorted(Path(pbelyi.__file__).parent.glob("*.py"))


def test_no_invariant_hangs_on_assert():
    """python -O strips assert statements, so the library raises its errors instead."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_only_the_size_check_raises_guard_errors():
    """Every guard goes through errors.check_size; other modules may catch GuardExceededError, not build one."""
    found = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "GuardExceededError":
                    found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and found == []


def _names(tree):
    """(lineno, name) of every name, attribute and import alias in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield getattr(node, "lineno", "?"), node.name
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id


def test_only_the_field_module_names_the_prime_field_kernel():
    """Each field binds its polynomial kernel in field.py; other modules call the
    field's pmul, pdivmod and ppowmod, so no module picks a kernel by route."""
    kernel = {"_pmul", "_pdivmod", "_ppowmod", "_inverse_series"}
    found = []
    for path in SOURCES:
        if path.name != "field.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line} {name}" for line, name in _names(tree) if name in kernel]
    assert SOURCES and found == []


def test_only_the_field_module_and_the_point_count_name_the_tables():
    """How a tabled field stores its values stays behind field.py: only the
    point count on logs, counting._log_stripe, reads _exp, _log or _zech too."""
    tables = {"_exp", "_log", "_zech"}
    found = []
    for path in SOURCES:
        if path.name not in ("field.py", "counting.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line} {name}" for line, name in _names(tree) if name in tables]
    assert SOURCES and found == []


def test_importing_the_package_leaves_multiprocessing_unloaded():
    """The search and the point count import multiprocessing only when they start a pool."""
    src = str(Path(pbelyi.__file__).parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); import pbelyi; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_only_the_enumeration_rebuilds_a_row():
    """The search counts a hit's place in closed form, search._place, so inside
    the library only enumerate_candidates names _row_stream, the row rebuilt
    map by map, and no count path rebuilds a row."""
    found, used = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        allowed = {line for f in funcs if f.name == "enumerate_candidates" for line, name in _names(f) if name == "_row_stream"}
        used += allowed
        found += [f"{path.name}:{line}" for line, name in _names(tree) if name == "_row_stream" and line not in allowed]
    assert used and found == []


def test_one_tame_count_and_one_coprimality_helper():
    """The root count deg g - deg gcd(g, g') and the coprimality test on value
    tuples are one function each, search._tame_root_count and search._coprime:
    the screen and the row scan share the count, and the row scan and _place
    share the test."""
    helpers = {"_tame_root_count": ("ramified", "scan"), "_coprime": ("_place", "scan")}
    defined, callers = [], {name: set() for name in helpers}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                if "root_count" in func.name or "coprime" in func.name:
                    defined.append(f"{path.name}:{func.name}")
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in helpers:
                        callers[node.func.id].add(f"{path.name}:{func.name}")
    assert sorted(defined) == ["search.py:_coprime", "search.py:_tame_root_count"]
    assert callers == {name: {f"search.py:{f}" for f in funcs} for name, funcs in helpers.items()}


def test_one_squarefree_routine_and_no_conjugate_product():
    """factor.squarefree_decomposition, Yun's loop, is the one square-free
    routine, and analyze takes each branch polynomial as the first linear
    relation among powers (ramification._min_poly): ramification.py builds no
    product over Frobenius conjugates, so it names no powmod, ppowmod or
    frobenius, and only the display representative names galois_orbit."""
    defined, found = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        defined += [f"{path.name}:{f.name}" for f in funcs if "squarefree" in f.name or "square_free" in f.name]
        if path.name == "ramification.py":
            allowed = {line for f in funcs if f.name == "_display_root" for line, _ in _names(f)}
            allowed |= {node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
            found += [
                f"{line} {name}" for line, name in _names(tree)
                if name in ("powmod", "ppowmod", "frobenius") or (name == "galois_orbit" and line not in allowed)
            ]
    assert defined == ["factor.py:squarefree_decomposition"] and found == []


def test_one_linear_solve_one_euclid_and_no_guard_as_control_flow():
    """field._relation is the one elimination: it alone names a pivot, and
    EmbeddingMap.section, ramification._min_poly and constructions.wild_h_tower
    call it.  field._euclid and field._ext_gcd alone loop on pdivmod.  No except
    clause names GuardExceededError, so no guard serves as control flow."""
    pivots, callers, loops, catches = set(), set(), set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                where = f"{path.name}:{func.name}"
                if any("pivot" in name for _, name in _names(func)):
                    pivots.add(where)
                if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_relation" for node in ast.walk(func)):
                    callers.add(where)
                for loop in ast.walk(func):
                    if isinstance(loop, ast.While) and any(name in ("pdivmod", "_pdivmod") for _, name in _names(loop)):
                        loops.add(where)
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                if any(name == "GuardExceededError" for _, name in _names(handler.type)):
                    catches.append(f"{path.name}:{handler.lineno}")
    assert pivots == {"field.py:_relation"}
    assert callers == {"field.py:section", "ramification.py:_min_poly", "constructions.py:wild_h_tower"}
    assert loops == {"field.py:_euclid", "field.py:_ext_gcd"}
    assert catches == []


def _enclosing_functions(tree):
    """Map each node of a module's tree to the name of the innermost function around it."""
    where = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            where[child] = inner
            visit(child, inner)

    visit(tree, "<module>")
    return where


def test_only_the_integer_check_refuses_a_non_int():
    """errors.check_int is the one refusal of a bool, a float or another non-int
    argument: no _require_nonneg or _positive_int is left, no module outside
    errors.py tests for a bool, and isinstance(..., int) stays only in the
    dispatches that read a raw value (FiniteField's _from_raw, a scalar factor
    in Polynomial.__mul__), none of which raises."""
    allowed = {"field.py:__init__", "poly.py:__mul__"}
    found, helpers = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        helpers += [f"{path.name}:{line} {name}" for line, name in _names(tree) if name in ("_require_nonneg", "_positive_int")]
        if path.name == "errors.py":
            continue
        where = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = {getattr(kind, "id", None) for kind in getattr(node.args[1], "elts", [node.args[1]])}
                if "bool" in kinds or ("int" in kinds and f"{path.name}:{where[node]}" not in allowed):
                    found.append(f"{path.name}:{node.lineno} isinstance")
    assert SOURCES and helpers == [] and found == []


def test_no_float_anywhere_in_the_package():
    """The README's promise: src holds no float literal and no float() call,
    imports no float-valued function from math, and divides with / in two
    places only, the Fraction recurrence of sym_product_count and
    FieldElement.__rtruediv__, which divides in the field."""
    int_valued = {"comb", "factorial", "gcd", "isqrt", "lcm"}
    found, divisions = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                found.append(f"{path.name}:{node.lineno} float()")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{path.name}:{node.lineno} math.{a.name}" for a in node.names if a.name not in int_valued]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
                found.append(f"{path.name}:{node.lineno} math.{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                divisions.append(f"{path.name}:{where[node]}")
    assert SOURCES and found == []
    assert sorted(divisions) == ["counting.py:sym_product_count", "field.py:__rtruediv__"]
