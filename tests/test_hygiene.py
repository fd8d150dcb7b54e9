"""Source hygiene checks that stand in for a linter."""

import argparse
import ast
import inspect
import json
import re
from pathlib import Path

import pytest

import wlift
from wlift import cli, serialize

SRC = Path(__file__).resolve().parents[1] / "src" / "wlift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Names bound by the module-level imports, except `from __future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text())
    # the root of an attribute chain such as np.linalg.norm is a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{module.name} imports but never uses {unused}"



def _qualified_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize(
    "module", [p for p in sorted(SRC.glob("*.py")) if p.name != "transport.py"],
    ids=lambda p: p.name,
)
def test_only_transport_imports_lp_tools(module):
    """transport.py holds the one LP builder and solver; no other module may
    import linprog, scipy.sparse or scipy's HiGHS bindings to build or solve
    LPs of its own."""
    bad = [
        name for name in _qualified_imports(ast.parse(module.read_text()))
        if name.startswith(("scipy.sparse", "scipy.optimize._highspy"))
        or name in ("scipy.optimize", "scipy.optimize.linprog")
    ]
    assert not bad, f"{module.name} imports {bad}"


def test_one_place_makes_highs_solvers():
    """Every LP runs on its thread's one reused solver (`transport._solver`),
    so the package constructs HiGHS solvers in one place only."""
    sites = sum(p.read_text().count("_highs._Highs(") for p in SRC.glob("*.py"))
    assert sites == 1


def test_one_place_raises_budget_errors():
    """Every size limit, WLIFT_BUDGET's and HiGHS's 32-bit index limit
    alike, is checked by one gate (`transport._charge`), so the package
    constructs BudgetExceededError in one place only."""
    calls = re.compile(r"(?<!class )BudgetExceededError\(")
    sites = sum(len(calls.findall(p.read_text())) for p in SRC.glob("*.py"))
    assert sites == 1


def test_one_place_compares_pair_costs_with_optima():
    """Every multi-coupling's pinned pair costs are compared with their
    W_p^p in one place (`transport._certify`), lift B's glued chain and the
    compatibility certificates alike."""
    sites = sum(p.read_text().count(".pair_cost(") for p in SRC.glob("*.py"))
    assert sites == 1


ROOT = SRC.parents[1]


def test_every_exported_function_has_a_user():
    """Every function `wlift/__init__.py` re-exports is named somewhere in
    the tests, the demos or the README; an export nobody calls is dead API."""
    texts = [p.read_text() for d in ("tests", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    exported = [name for name in _imported_names(ast.parse((SRC / "__init__.py").read_text()))
                if inspect.isfunction(getattr(wlift, name))]
    assert exported
    unused = [name for name in exported
              if not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert not unused, f"exported but named nowhere in tests/, demos/ or README.md: {unused}"


def _private_definitions(tree):
    """Module-level functions, classes and assignments whose names start
    with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_function_has_a_caller():
    """Every module-level private name in src/wlift is read somewhere in
    src/wlift, as a name or an attribute: a helper nothing calls is dead
    code."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [(mod, name) for mod, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) > 20
    dead = [f"{mod}:{name}" for mod, name in defined if name not in read]
    assert not dead, f"defined but never read in src/wlift: {dead}"


def _measure_constructions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DiscreteMeasure"]


def test_only_make_measure_constructs_measures():
    """`transport._cost_matrix` takes a measure's atoms as canonical points
    without canonicalizing them again.  That holds because `make_measure`
    canonicalizes them and is the one place in src/wlift that constructs a
    DiscreteMeasure."""
    total = sum(len(_measure_constructions(ast.parse(p.read_text()))) for p in SRC.glob("*.py"))
    tree = ast.parse((SRC / "measures.py").read_text())
    make = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "make_measure")
    assert total == len(_measure_constructions(make)) == 1
    assert sum(p.read_text().count("DiscreteMeasure(") for p in SRC.glob("*.py")) == 1


class _ReadRecorder(argparse.Namespace):
    """A parsed namespace that records the attributes read from it."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


# small calls that between them take every branch of each handler that
# reads an option
CLI_CALLS = {
    "ot": [["--mu", "{mu}", "--nu", "{nu}", "--coupling"]],
    "compat": [["--measures", "{mu}", "{nu}"],
               ["--family", "cylinder_family", "--param", "J=0", "--times", "0,0.5"]],
    "lift": [["--family", "cylinder_family", "--param", "J=0", "--levels", "2",
              "--format", "json"]],
    "norms": [["--norm", "besov", "--family", "cylinder_family", "--param", "J=0", "-M", "2"],
              ["--norm", "besov", "--builtin", "tent"],
              ["--norm", "variation", "--path", "{path}"]],
    "bb": [["--atoms", "2"], ["--mu", "{mu}", "--nu", "{nu}"]],
    "example": [["cylinder_family", "--param", "J=0"]],
}


def test_every_cli_option_is_read(tmp_path):
    """Each subcommand declares only the options its handler reads: over
    the calls above, every option a subparser declares is read from the
    parsed namespace after parsing."""
    sp = wlift.euclidean(1)
    files = {"mu": tmp_path / "mu.json", "nu": tmp_path / "nu.json",
             "path": tmp_path / "path.json"}
    files["mu"].write_text(json.dumps(serialize.measure_to_json(wlift.dirac(sp, [0.0]))))
    files["nu"].write_text(json.dumps(serialize.measure_to_json(wlift.dirac(sp, [1.0]))))
    files["path"].write_text(json.dumps({"space": serialize.space_to_json(sp),
                                         "breakpoints": [[0.0], [1.0], [0.0]]}))
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(subparsers) == sorted(CLI_CALLS)
    unread = []
    for command, calls in CLI_CALLS.items():
        reads = set()
        for call in calls:
            argv = [command] + [a.format(**files) for a in call]
            args = parser.parse_args(argv + ["--out", str(tmp_path / "out")],
                                     namespace=_ReadRecorder())
            args.reads = reads
            assert args.func(args) in (cli.EXIT_OK, cli.EXIT_NEGATIVE), argv
        declared = [a.dest for a in subparsers[command]._actions if a.dest != "help"]
        unread += [f"{command} {dest}" for dest in declared if dest not in reads]
    assert not unread, f"{len(unread)} declared options never read: {unread}"
