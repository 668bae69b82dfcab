"""Every top-level name in src/qkdforge is read somewhere in src/, and
every dataclass field somewhere in src/ or tests/; no module imports
ctypes.

A function, class or constant that no module reads is reached by no
command, check or criterion; it is either deleted or named below with
the reason it stays. A field that nothing reads is state written and
never used. ctypes would reach past Python into process-wide settings
such as the C allocator's, which a library must leave to its host.
"""

import ast
from pathlib import Path

import qkdforge

SRC = Path(qkdforge.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

KEPT_UNREAD = {
    "__all__": "the public names that `from qkdforge import *` binds",
    "__version__": "the package version, for users and tools to read",
    "replay_bob": "Bob's side from announcements alone: the BB84 tests' hidden-coupling check",
    "eve_info_estimate": "Eve's learned fraction, planned for the --trace stage lines",
    "rotation_error": "acceptance criterion 8 corrupts a codeword with it",
    "bitflip_decode": "the paper's decoding step for the 3-qubit bit-flip code",
}


def top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_top_level_name_in_src_is_read_or_kept_for_a_reason():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in read_names(tree)}
    unread = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if name not in read and name not in KEPT_UNREAD
    )
    assert not unread, f"top-level names nothing in src/ reads: {unread}"


def dataclass_fields(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_in_src_is_read_as_an_attribute():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{path.name}:{cls}.{field}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls, field in dataclass_fields(tree)
        if field not in loaded
    )
    assert not unread, f"dataclass fields nothing in src/ or tests/ reads: {unread}"


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_no_module_in_src_imports_ctypes():
    importers = sorted(
        path.name for path in SRC.glob("*.py") if "ctypes" in imported_modules(ast.parse(path.read_text()))
    )
    assert not importers, f"modules that import ctypes: {importers}"


def written_roots(function):
    """Root names of the attributes and items a function's body assigns to."""
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, (ast.Attribute, ast.Subscript)):
                    root = part.value
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if isinstance(root, ast.Name):
                        yield root.id


def test_no_public_function_in_src_writes_into_its_arguments():
    """Values are immutable: a public function returns what it makes. A
    private helper may fill an array its caller owns (bb84._abort,
    css._identity_deviation)."""
    writers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                arguments = node.args
                params = {a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
                params |= {a.arg for a in (arguments.vararg, arguments.kwarg) if a is not None}
                if params & set(written_roots(node)):
                    writers.append(f"{path.stem}.{node.name}")
    assert not writers, f"public functions that write into an argument: {writers}"
