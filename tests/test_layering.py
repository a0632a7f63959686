"""The library layers do not depend on the CLI layers above them."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dwsim"
LIBRARY = ("constants", "spin", "lattice", "bands", "dynamics", "ensemble", "fitting")
CLI_LAYERS = {"config", "output", "cli"}
REFERENCE_ORACLES = {"assemble_bloch_hamiltonian", "potential_matrix"}


def imported_dwsim_modules(path: Path) -> set[str]:
    """Names of the dwsim modules that one file of the package imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(filter(None, ("dwsim", node.module)))
            modules = [f"{base}.{a.name}" for a in node.names] if base == "dwsim" else [base]
        else:
            continue
        names.update(m.split(".")[1] for m in modules if m.startswith("dwsim."))
    return names


def test_no_module_calls_the_reference_hamiltonian():
    # tests/reference_hamiltonian.py holds the tests' reference functions;
    # the package assembles every Hamiltonian with bands._block_tridiagonal
    # and neither defines nor calls them
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
            else:
                continue
            assert name not in REFERENCE_ORACLES, path.name


def test_library_modules_do_not_import_the_cli_layers():
    for name in LIBRARY:
        assert not imported_dwsim_modules(SRC / f"{name}.py") & CLI_LAYERS, name


def references_outside_own_definition(tree: ast.AST) -> set[str]:
    """Names a module refers to (loads, attributes, imports), each counted only
    outside the def or class of that same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            found.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute):
            found.update({node.attr} - enclosing)
        elif isinstance(node, ast.ImportFrom):
            found.update({a.name for a in node.names} - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_exported_name_is_read_by_a_module():
    # A name is public only if the package itself reads it: a name that
    # only the tests use is not exported.
    import dwsim

    referenced = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            referenced |= references_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(dwsim.__all__) - referenced) == []
