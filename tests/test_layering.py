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
