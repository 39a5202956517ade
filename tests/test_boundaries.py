"""Module boundaries: no package module reaches into another's private names.

Each module keeps its helpers private, and siblings go through public
names only.  The one shared private helper is the memory guard
`core._check_bytes`, which every module that allocates calls.  Every
`__all__` names only what its module defines, and the package re-exports
only names that their module's `__all__` lists.  scipy.sparse, slow to
import, loads only in the one CSR builder, `hamiltonian._csr`.  Only `cli`
touches the disk or renders CSV: every other module returns values.  The
one evolution engine is the Chebyshev recurrence: H's dense
eigendecomposition serves only the Trotter error algebra, and its
eigenvalues alone the exact `Propagator.norm_bound`.  Only
`core.one_blas_thread` talks to OpenBLAS, and no module sets a BLAS
thread variable.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spindyn"
SHARED = {"_check_bytes"}


def reach_ins(path):
    """Lines of `path` that import a private name from a sibling module or
    read a private attribute of any object other than self or cls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "spindyn"
        ):
            for alias in node.names:
                if alias.name.startswith("_") and alias.name not in SHARED:
                    yield f"{path.name}:{node.lineno} imports {alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            yield f"{path.name}:{node.lineno} reads .{node.attr}"


def test_modules_use_only_public_names_of_their_siblings():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"core.py", "hamiltonian.py", "trotter.py"}
    found = [line for path in modules for line in reach_ins(path)]
    assert found == []


def module_all(tree):
    """The names a module's `__all__` lists, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def top_level_names(tree):
    """The names a module binds at its top level: definitions, assignments
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def test_export_lists_match_the_modules_and_the_package():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    missing = []
    for stem, tree in trees.items():
        listed = module_all(tree)
        if listed is not None:
            bound = top_level_names(tree)
            missing += [f"{stem}.__all__ lists undefined {x}" for x in listed if x not in bound]
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = module_all(trees[node.module])
            if listed is not None:
                missing += [
                    f"__init__ re-exports {a.name}, not in {node.module}.__all__"
                    for a in node.names
                    if a.name not in listed
                ]
    assert missing == []


def sparse_imports(tree):
    """(line, scope) of every import of scipy.sparse or a submodule of it:
    scope is the innermost enclosing function's name, "TYPE_CHECKING"
    inside `if TYPE_CHECKING:`, or None at the top level."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
            found.append((node.lineno, scope))
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and (
            node.test.id == "TYPE_CHECKING"
        ):
            for child in node.body:
                visit(child, "TYPE_CHECKING")
            for child in node.orelse:
                visit(child, scope)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_scipy_sparse_is_imported_only_by_the_csr_builder():
    # a dense command must start without paying for scipy.sparse's import,
    # so no module loads it at import time or outside `_csr`
    found = {
        p.stem: sparse_imports(ast.parse(p.read_text(), filename=str(p)))
        for p in sorted(SRC.glob("*.py"))
    }
    stray = [
        f"{stem}.py:{line} imports scipy.sparse in {scope or 'the module body'}"
        for stem, imports in found.items()
        for line, scope in imports
        if scope != "TYPE_CHECKING" and (stem, scope) != ("hamiltonian", "_csr")
    ]
    assert stray == []
    assert "_csr" in {scope for _, scope in found["hamiltonian"]}


FILE_WRITES = {"write_text", "write_bytes", "mkdir"}


def disk_touches(tree):
    """(line, what) of every call of `open`, `.write_text`, `.write_bytes`
    or `.mkdir`, and of every import of csv."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield node.lineno, "calls open"
            elif isinstance(func, ast.Attribute) and func.attr in FILE_WRITES:
                yield node.lineno, f"calls .{func.attr}"
        elif isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            yield node.lineno, "imports csv"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv":
            yield node.lineno, "imports csv"


def test_only_the_cli_touches_the_disk():
    # experiments hand their outputs back as bytes; `cli.main` writes them
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    found = [
        f"{name}:{line} {what}"
        for name, tree in trees.items()
        if name != "cli.py"
        for line, what in disk_touches(tree)
    ]
    assert found == []
    assert {what for _, what in disk_touches(trees["cli.py"])} == {
        "imports csv", "calls .mkdir", "calls .write_bytes"
    }


def calls_of(tree, name):
    """The qualified scope ("Class.method", "function" or "<module>") of
    every call of `name`, as a bare name or as an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                found.append(scope or "<module>")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_trotter_and_the_norm_bound_decompose_h():
    # a lone Propagator reads its tables from the recurrence at every
    # dimension; spectral_parts serves the Trotter algebra, and the
    # eigenvalues-only operator_norm the exact norm within _DENSE_LIMIT
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    allowed = {"spectral_parts": "trotter", "operator_norm": "evolve"}
    found = {name: {stem: calls_of(tree, name) for stem, tree in trees.items()} for name in allowed}
    stray = [
        f"{stem}.py calls {name} in {scope}"
        for name, calls in found.items()
        for stem, scopes in calls.items()
        for scope in scopes
        if stem != allowed[name]
    ]
    assert stray == []
    assert found["operator_norm"]["evolve"] == ["Propagator.norm_bound"]
    assert found["spectral_parts"]["trotter"]


OPENBLAS_NAMES = ("scipy_openblas", "set_num_threads", "get_num_threads")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_touches(tree):
    """(line, scope, what) of every import of ctypes, every string outside
    a docstring that names an OpenBLAS library or thread call, and every write of a BLAS
    or OMP thread variable into os.environ (a subscript store, a call of
    its setdefault or update, or os.putenv)."""
    found = []

    def names_var(node):
        return any(
            isinstance(c, ast.Constant) and isinstance(c.value, str)
            and any(var in c.value for var in THREAD_VARS)
            for c in ast.walk(node)
        )

    def visit(node, scope):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring names no symbol
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ctypes" for a in node.names):
            found.append((node.lineno, scope, "imports ctypes"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes":
            found.append((node.lineno, scope, "imports ctypes"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
            name in node.value for name in OPENBLAS_NAMES
        ):
            found.append((node.lineno, scope, f"names {node.value!r}"))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and ast.unparse(node.value).endswith("environ")
            and names_var(node.slice)
        ):
            found.append((node.lineno, scope, "sets a thread variable"))
        elif isinstance(node, ast.Call) and names_var(node):
            func = ast.unparse(node.func)
            if func.endswith(("environ.setdefault", "environ.update", "putenv")):
                found.append((node.lineno, scope, "sets a thread variable"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_the_core_pin_talks_to_openblas():
    # one helper holds numpy's OpenBLAS at one thread; a module that set
    # a thread variable would act only before numpy loads, and silently
    found = {
        p.stem: blas_touches(ast.parse(p.read_text(), filename=str(p)))
        for p in sorted(SRC.glob("*.py"))
    }
    stray = [
        f"{stem}.py:{line} {what} in {scope or 'the module body'}"
        for stem, touches in found.items()
        for line, scope, what in touches
        if stem != "core" or what == "sets a thread variable"
    ]
    assert stray == []
    # in core: the ctypes import, and the names only the locator reads
    assert {what for _, _, what in found["core"]} >= {"imports ctypes"}
    named = {scope for _, scope, what in found["core"] if what.startswith("names")}
    assert named == {None}  # the module-level constants
    assert "_openblas_threads" in {
        scope for scope in calls_of(ast.parse((SRC / "core.py").read_text()), "CDLL")
    }


def test_blas_touches_sees_each_form():
    tree = ast.parse(
        "import ctypes\n"
        "import os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "def f():\n"
        "    'the OpenBLAS set_num_threads call'\n"
        "    os.environ.setdefault('OMP_NUM_THREADS', '1')\n"
        "    os.environ.update({'MKL_NUM_THREADS': '2'})\n"
        "    lib.scipy_openblas_set_num_threads64_(1)\n"
        "    return 'libscipy_openblas64_'\n"
    )
    assert [(line, what) for line, _, what in blas_touches(tree)] == [
        (1, "imports ctypes"),
        (3, "sets a thread variable"),
        (6, "sets a thread variable"),
        (7, "sets a thread variable"),
        (9, "names 'libscipy_openblas64_'"),
    ]
