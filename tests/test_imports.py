"""Every library module references each name it imports, every library
function is referenced somewhere (no linter is assumed), and importing the
package stays light."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gspencer"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name} imports names it never references"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _references(node, enclosing, out):
    """Add to out every name node references outside a def of that name: Name
    ids, Attribute attrs and the dotted parts of string constants (the
    benchmark tracer names its targets as strings like "Subspace.reduce")."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [part for part in node.value.split(".") if part.isidentifier()]
    else:
        names = []
    out.update(name for name in names if name not in enclosing)
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, out)


def test_every_library_function_is_referenced():
    # a function or method nobody calls is dead code left behind by a refactor
    files = [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py")]
    referenced = set()
    for path in files:
        _references(ast.parse(path.read_text(encoding="utf-8")), frozenset(), referenced)
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not _is_dunder(node.name)}
    assert sorted(defined - referenced) == [], "functions defined but never referenced"


def test_only_spencer_names_the_complex_memo():
    # SpencerComplex keeps every computed piece in `_memo`, and the functions
    # of spencer.py that own each kind are its only readers and writers
    for path in MODULES:
        if path.name == "spencer.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "_memo"
                 or isinstance(node, ast.Name) and node.id == "_memo"
                 or isinstance(node, ast.Constant) and node.value == "_memo"]
        assert not named, f"{path.name} names _memo at line {named[0].lineno}"


def test_library_calls_no_dense_bracket_or_element():
    # the library computes on (coordinate, value) pairs; the dense bracket and the
    # dense element builders stay as API and test-oracle surface only
    dense_api = ("bracket", "embed_component", "basis_element")
    for path in MODULES:
        calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in dense_api]
        assert not calls, f"{path.name} calls .{calls[0].func.attr} at line {calls[0].lineno}"


def test_import_loads_no_dataclasses_or_argparse():
    # the records are NamedTuples, so a cold `import gspencer` pulls in neither
    # dataclasses nor the inspect/ast/dis modules it imports; argparse comes
    # with the command line only
    heavy = ("dataclasses", "inspect", "ast", "dis", "argparse")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gspencer; "
            f"print(*[m for m in {heavy!r} if m in sys.modules]); "
            "import gspencer.cli; print('argparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["", "True"]


def test_only_algebra_reads_the_stored_constants():
    # GradedLieAlgebra keeps its structure constants in `_rows`, in a format private
    # to algebra.py; other modules read them through bracket_basis, bracket,
    # bracket_sum and constants()
    for path in SRC.glob("*.py"):
        if path.name == "algebra.py":
            continue
        named = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_table")]
        assert not named, f"{path.name} reads .{named[0].attr} at line {named[0].lineno}"


def test_only_linalg_reads_the_stored_images():
    # LinearMap keeps its images as integer rows over one denominator, in a format
    # private to linalg.py; other modules ask the map through apply
    for path in SRC.glob("*.py"):
        if path.name == "linalg.py":
            continue
        named = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr == "images"]
        assert not named, f"{path.name} reads .images at line {named[0].lineno}"


def test_only_linalg_names_rmatrix():
    # below the API edge a matrix is its (i, j, x) entries: generators, J and the
    # model bases; the dense RMatrix is built and taken by linalg's edge functions
    # alone, and the package re-exports it
    for path in SRC.glob("*.py"):
        if path.name in ("linalg.py", "__init__.py"):
            continue
        named = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Name) and node.id == "RMatrix"
                 or isinstance(node, ast.Attribute) and node.attr == "RMatrix"
                 or isinstance(node, ast.alias) and node.name == "RMatrix"]
        assert not named, f"{path.name} names RMatrix at line {named[0].lineno}"


def test_only_the_solver_modules_build_unchecked_cochains():
    # Cochain._unchecked skips the constructor's checks; only the producers in
    # spencer.py and obstruction.py, whose values are canonical by construction,
    # may call it, and every other module goes through the checked constructor
    for path in SRC.glob("*.py"):
        if path.name in ("spencer.py", "obstruction.py"):
            continue
        named = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
                 or isinstance(node, ast.Name) and node.id == "_unchecked"]
        assert not named, f"{path.name} names _unchecked at line {named[0].lineno}"
