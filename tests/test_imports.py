"""Module boundaries, read from the source: no polydc module imports a private
name from another, the sequence constructions neither use the series engine
nor call the Euler recurrence oracle, no serving function evaluates the DC
sums through the memoized alt-bar route, none expands a polynomial by affine
substitution or schoolbook product, the Stirling weight rows have three
readers only, one integer binomial convolution fills every cached row, no identity reaches the Euclid route of the public sums, every single
DC sum reads one moment kernel, which only the moment cache runs, the polynomial identities reach no Fraction assembly, the row kernel is
called once per combination and never per term, the Fraction oracles live in
tests/oracles.py, the package steps Horner's rule in one loop and every
weighted power sum over residues in one other, every package
name the benchmark reads exists, and the package keeps an oracle only while
the benchmark reads it."""

import ast
import importlib
from pathlib import Path
from typing import Callable

import pytest

from polydc import dc_sums

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polydc"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "polydc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"


def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name referenced under node."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def test_sequences_serving_path_uses_no_series_engine():
    # The Euler numbers come from integer tangent numbers, and every other
    # family is read off them and the Stirling weights; the series engine and
    # the Fraction recurrence are test oracles only.
    tree = ast.parse((PACKAGE / "sequences.py").read_text(encoding="utf-8"))
    engine = {"series_reciprocal", "exp_series", "series_mul", "series_compose", "log1p_series"}
    assert not _identifiers(tree) & engine
    assert _callers(PACKAGE / "sequences.py", {"_euler_numbers_recurrence"}) == []


def _callers(path: Path, names: set[str]) -> list[str]:
    """Every function in the module at path that calls one of names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and _identifiers(call.func) & names
            for call in ast.walk(node)
        )
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_the_alt_bar_cache(path):
    # The DC sums and the reciprocity right sides read integer moments; the
    # memoized Ê route grew without bound in long-lived processes.
    callers = _callers(path, {"_euler_alt_bar"})
    assert callers == [], f"{path.name}: {callers} call _euler_alt_bar"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_poly_affine_expands_polynomial_products(path):
    # The distribution sum is an integer moment kernel; affine substitution and
    # the schoolbook product are test oracles and benchmark ladder rungs only.
    callers = _callers(path, {"poly_affine", "poly_mul"})
    callers = [name for name in callers if name != "poly_affine"]
    assert callers == [], f"{path.name}: {callers} call poly_affine or poly_mul"


def _package_callers(names: set[str]) -> list[str]:
    return sorted(
        name for path in sorted(PACKAGE.glob("*.py")) for name in _callers(path, names)
    )


def test_only_the_weight_readers_call_stirling_weights():
    # Every weighted sum over the index-k families reads the Theorem 3 weights;
    # only they, the poly-Genocchi numbers and thm1/cor2 read the row itself:
    # the integer row through `grow_weights`, thm1/cor2 its Fraction view, whose
    # entries `_weight` derives.
    assert _package_callers({"stirling_weights"}) == ["_compute_cor2", "_compute_thm1"]
    assert _package_callers({"grow_weights"}) == [
        "_weight",
        "grow_numbers",
        "stirling_weights",
        "theorem3_integer_weights",
    ]


def test_one_integer_convolution_fills_every_cached_row():
    # The Euler, Genocchi, poly-Genocchi and poly-Euler rows are built from
    # integers by one binomial convolution, each once per entry; no served
    # function derives a row from Fractions.
    fills = ["_euler_row", "_genocchi_row", "_poly_euler_row", "_poly_genocchi_row"]
    assert _package_callers({"_convolution_row"}) == fills
    assert _package_callers({"RationalRow"}) == fills
    assert _package_callers({"integer_coefficients", "binomial_convolution"}) == []


#: The identities of dc_sums; the verifier registry serves thm10-thm14, cor15,
#: recip_closed_form and k1_collapse through them.
IDENTITIES = (
    "s_pk_of_1_m",
    "theorem11_sides",
    "theorem12_sides",
    "theorem13_sides",
    "reciprocity_sides",
    "corollary15_rhs",
    "corollary15_sides",
    "k1_collapse_sides",
    "reciprocity_closed_form_sides",
)
SERVED_SUMS = {"dc_sum", "poly_dc_sum", "_euclid_sums"}


def _reachable(path: Path, root: str) -> set[str]:
    """Every name called from the module-level function root, directly or through
    the module's other functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {
        node.name: {
            name
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            for name in _identifiers(call.func)
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    seen, todo = set(), [root]
    while todo:
        for name in calls.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_only_the_public_sums_take_the_euclid_route():
    callers = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _callers(path, {"_euclid_sums"})
    ]
    assert sorted(callers) == ["dc_sum", "poly_dc_sum"]


@pytest.mark.parametrize("identity", IDENTITIES)
def test_no_identity_reaches_the_euclid_route(identity):
    # The Euclid route is built on reciprocity, so an identity that read it
    # would check reciprocity with a value that reciprocity built.
    reached = _reachable(PACKAGE / "dc_sums.py", identity)
    assert not reached & SERVED_SUMS, f"{identity} reaches {reached & SERVED_SUMS}"


@pytest.mark.parametrize(
    "reader",
    [
        "dc_sum",
        "poly_dc_sum",
        "reciprocity_sides",
        "corollary15_sides",
        "reciprocity_closed_form_sides",
        "k1_collapse_sides",
    ],
)
def test_every_single_sum_reads_the_one_moment_kernel(reader):
    # The even-argument sums and the left sides of both reciprocity laws share
    # one O(m) kernel; a second route to the same single sum is not served.
    assert "_moment_total" in _reachable(PACKAGE / "dc_sums.py", reader)


def test_each_moment_loop_has_one_caller():
    # The single and the double moments are each run by one function, the
    # moment cache's read, and read through it by one function each (the
    # right side reads the double moments at (h, m) and at (m, h)), so a
    # faster kernel for either replaces that one function.
    path = PACKAGE / "dc_sums.py"
    functions = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    ]
    kernels = {"_single_moments", "_double_moments"}
    assert _callers(path, kernels) == []
    assert _callers(path, {"kernel"}) == ["read"]
    reads = [
        (function.name, call.args[0].id)
        for function in functions
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and _identifiers(call.func) == {"_MOMENT_CACHE", "read"}
    ]
    assert reads == [
        ("_moment_total", "_single_moments"),
        ("_reciprocity_rhs", "_double_moments"),
        ("_reciprocity_rhs", "_double_moments"),
    ]
    referrers = [function.name for function in functions if _identifiers(function) & kernels]
    assert referrers == ["_moment_total", "_reciprocity_rhs"]


def test_the_reciprocity_verifiers_read_the_identities_only():
    tree = ast.parse((PACKAGE / "identity_suite.py").read_text(encoding="utf-8"))
    registry = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "VERIFIERS"
    )
    gated = (
        "thm10", "thm11", "thm12", "thm13", "thm14", "cor15", "recip_closed_form", "k1_collapse"
    )
    entries = {key.value: value for key, value in zip(registry.keys, registry.values)}
    for verifier_id in gated:
        names = _identifiers(entries[verifier_id])
        assert names & set(IDENTITIES) and not names & SERVED_SUMS, verifier_id
    # The exploratory sawtooth comparison is the only other reader of a DC sum.
    callers = _callers(PACKAGE / "identity_suite.py", SERVED_SUMS)
    assert callers == ["_compute_sawtooth_exploratory"]


#: The verifiers' compute functions for the polynomial identities, which
#: compare integer rows end to end.
POLYNOMIAL_IDENTITIES = (
    "_compute_eq18",
    "_compute_thm3",
    "_compute_thm6",
    "_compute_cor7",
    "_compute_oracle_equivalence",
)
FRACTION_ASSEMBLY = {"poly_combination", "alternating_distribution"}
#: The one kernel that combines integer rows and their distribution sums.
ROW_KERNEL = "distributed_combination"


def _package_reachable(root: str) -> set[str]:
    """Every name referenced from the function root, directly or through any
    function defined in the package, called or passed as a value."""
    references: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                references.setdefault(node.name, set()).update(_identifiers(node))
    seen, todo = set(), [root]
    while todo:
        for name in references.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


@pytest.mark.parametrize("identity", POLYNOMIAL_IDENTITIES)
def test_polynomial_identities_reach_no_fraction_assembly(identity):
    # Both sides are integer rows compared by cross-multiplication; the
    # Fraction linear combination and the Fraction distribution sum are the
    # tests' reference routes.
    reached = _package_reachable(identity)
    assert ROW_KERNEL in reached, identity
    assert not reached & FRACTION_ASSEMBLY, f"{identity} reaches {reached & FRACTION_ASSEMBLY}"


def _enclosing_repeats(tree: ast.AST, names: set[str]) -> list[str]:
    """function:kind for every call of one of names that sits in a loop, a
    comprehension or a lambda of its function."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    repeats = (
        ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda
    )
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _identifiers(node.func) & names):
            continue
        kinds, up = [], parents.get(node)
        while up is not None and not isinstance(up, ast.FunctionDef):
            if isinstance(up, repeats):
                kinds.append(type(up).__name__)
            up = parents.get(up)
        found += [f"{up.name if up is not None else '<module>'}:{kind}" for kind in kinds]
    return found


def test_the_row_kernel_combines_first_and_distributes_once():
    # A combination of distribution sums is one kernel call: combined first,
    # distributed once, O(n^2).  One call per term, then a sum of the rows,
    # was O(n^3); that per-row route is the tests' oracle (tests/oracles.py).
    found, defined = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += _enclosing_repeats(tree, {ROW_KERNEL})
        found += [
            f"{node.func.id}:Lambda"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "theorem3_combination"
            and any(isinstance(arg, ast.Lambda) for arg in node.args)
        ]
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert found == []
    assert ROW_KERNEL in defined
    assert not defined & {"row_combination", "row_distribution", "poly_euler_row_via_corollary7"}


def test_the_fraction_oracles_live_in_the_tests_only():
    # Without this, the test above would pass with the oracles back in the package
    # and nothing calling them.
    moved = FRACTION_ASSEMBLY | {
        "theorem3_weights",
        "bar_eval",
        "alternating_bar_eval",
        "integer_coefficients",
        "binomial_convolution",
        "stirling_weight",
        "poly_genocchi_sums",
    }
    defined = {
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & moved


def _is_horner_step(node: ast.AST) -> bool:
    """node is v = v·x + c (the product's factors and the sum's terms in
    either order), the step of Horner's rule."""
    if not (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Add)
    ):
        return False
    target = node.targets[0].id
    return any(
        isinstance(term, ast.BinOp)
        and isinstance(term.op, ast.Mult)
        and any(isinstance(f, ast.Name) and f.id == target for f in (term.left, term.right))
        for term in (node.value.left, node.value.right)
    )


def _multiplies_itself(value: ast.AST, target: str) -> bool:
    """value is target·x, x·target, or the elementwise map(mul, target, ...),
    possibly inside list(...) or tuple(...)."""
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
        return any(isinstance(f, ast.Name) and f.id == target for f in (value.left, value.right))
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
        return False
    args = value.args
    if value.func.id in ("list", "tuple"):
        return len(args) == 1 and _multiplies_itself(args[0], target)
    return (
        value.func.id == "map"
        and bool(args)
        and isinstance(args[0], ast.Name)
        and args[0].id == "mul"
        and any(isinstance(a, ast.Name) and a.id == target for a in args[1:])
    )


def _is_power_step(node: ast.AST) -> bool:
    """node is v *= x, v = v·x, or v = list(map(mul, v, ...)): the step that
    takes a power, or a list of powers, one degree up."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Mult) and isinstance(node.target, ast.Name)
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and _multiplies_itself(node.value, node.targets[0].id)
    )


def _stepping_loops(paths: list[Path], is_step: Callable[[ast.AST], bool]) -> list[str]:
    """module.function for every loop in the files at paths that takes a step."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not is_step(node):
                continue
            loop, up = False, parents.get(node)
            while up is not None and not isinstance(up, ast.FunctionDef):
                loop = loop or isinstance(up, (ast.For, ast.While))
                up = parents.get(up)
            if loop:
                found.append(f"{path.stem}.{up.name if up is not None else '<module>'}")
    return found


def test_the_package_has_one_horner_loop():
    # IntegerRow.value_at (which poly_eval, eval and the row witness read) and
    # thm13 evaluate polynomials through one integer kernel; the Fraction
    # Horner loop is the tests' oracle.
    assert _stepping_loops(sorted(PACKAGE.glob("*.py")), _is_horner_step) == [
        "exact_algebra.horner"
    ]
    assert _package_callers({"horner"}) == ["theorem13_sides", "value_at"]


def test_the_package_has_one_moment_loop():
    # The alternating power sums and the single and double moments add each
    # term's weight at its residue and read one kernel; the per-term loops that
    # stepped every term's power through every degree are the tests' oracles.
    paths = sorted(PACKAGE.glob("*.py"))
    assert _stepping_loops(paths, _is_power_step) == ["exact_algebra.residue_moments"]
    assert _package_callers({"residue_moments"}) == [
        "_double_moments",
        "_single_moments",
        "alternating_power_sums",
    ]
    oracles = Path(__file__).with_name("oracles.py")
    assert _stepping_loops([oracles], _is_power_step) == [
        "oracles.alternating_power_sums_by_term",
        "oracles.single_moments_by_term",
        "oracles.double_moments_by_term",
        "oracles.double_moments_by_term",
    ]


BENCH = PACKAGE.parents[1] / "bench"
BENCH_MODULES = ("exact_algebra", "sequences", "dc_sums", "identity_suite")
#: The benchmark's helpers that call a module's function by its string name.
BENCH_NAME_CALLS = {"_seq": "sequences", "_dcs": "dc_sums"}


def _bench_names() -> set[tuple[str, str]]:
    """Every (module, name) of the package that a file under bench/ reads: an
    attribute of a module, a name passed to `_seq`/`_dcs`, or a getattr string."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in BENCH_MODULES
            ):
                names.add((node.value.id, node.attr))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                args = node.args
                if node.func.id in BENCH_NAME_CALLS and args:
                    module, name = BENCH_NAME_CALLS[node.func.id], args[0]
                elif node.func.id == "getattr" and len(args) > 1 and isinstance(args[0], ast.Name):
                    module, name = args[0].id, args[1]
                else:
                    continue
                if (
                    module in BENCH_MODULES
                    and isinstance(name, ast.Constant)
                    and isinstance(name.value, str)
                ):
                    names.add((module, name.value))
    return names


def test_every_package_name_the_benchmark_reads_exists():
    # A traced benchmark run reads private names (the alt-bar cache, the Euler
    # recurrence) and the ladders time oracle functions; deleting one of them
    # turns a run into an error with no result line.
    names = _bench_names()
    assert ("dc_sums", "_euler_alt_bar") in names
    missing = sorted(
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"polydc.{module}"), name)
    )
    assert missing == []
    assert hasattr(dc_sums._euler_alt_bar, "cache_info")


#: The reference routes still defined in the package, each because bench/ reads
#: it or (series_mul, poly_mul) calls it from one that bench/ reads; every
#: other oracle lives in tests/oracles.py.  The set only shrinks.
BENCH_HELD_ORACLES = {
    ("exact_algebra", "series_mul"),
    ("exact_algebra", "series_reciprocal"),
    ("exact_algebra", "series_compose"),
    ("exact_algebra", "exp_series"),
    ("exact_algebra", "log1p_series"),
    ("exact_algebra", "poly_mul"),
    ("exact_algebra", "poly_affine"),
    ("sequences", "polyexp_series"),
    ("sequences", "_euler_numbers_recurrence"),
    ("sequences", "poly_euler_via_theorem3"),
    ("sequences", "poly_euler_via_corollary7"),
    ("dc_sums", "_euler_alt_bar"),
}


@pytest.mark.parametrize("module, name", sorted(BENCH_HELD_ORACLES))
def test_the_package_keeps_an_oracle_only_while_the_benchmark_reads_it(module, name):
    bench = _bench_names()
    callers = {
        caller
        for path in sorted(PACKAGE.glob("*.py"))
        for caller in _callers(path, {name})
    }
    assert hasattr(importlib.import_module(f"polydc.{module}"), name)
    # No served function calls an oracle ...
    assert callers <= {held for _, held in BENCH_HELD_ORACLES}, callers
    # ... and bench/ reads it, or calls it through one that it reads.
    assert (module, name) in bench or callers and {(module, c) for c in callers} <= bench
