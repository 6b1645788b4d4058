"""The package's declared surface is true.

``import repro`` needs NumPy alone, every exported name exists, and
every caller outside the package — the examples and the shape suite —
imports only names that exist, so a deletion that strands one of them
fails here rather than in ``make shapes`` minutes later.
"""

import ast
import functools
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = sorted(
    p for d in ("examples", "benchmarks") for p in (ROOT / d).glob("*.py")
)
MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_import_needs_only_numpy():
    """Optional third-party packages stay out of every trainer, grid
    worker and server process: a fresh interpreter that imports the
    package has loaded neither."""
    code = (
        "import repro, sys; "
        "print(sorted({'networkx', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = {}
    for name in ["repro", *MODULES]:
        module = importlib.import_module(name)
        gone = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if gone:
            missing[name] = gone
    assert not missing


def _repro_imports(path: pathlib.Path):
    """``(module, name-or-None)`` for every import of the package in *path*."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize(
    "path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_callers_import_only_what_exists(path):
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")


#: Modules no CLI path, registered artifact or benchmark reaches, kept
#: on purpose.
UNREACHED_BY_DESIGN = {
    "repro.experiments.fig1_space": "Fig. 1 cube; run by benchmarks/ until registered",
    "repro.hardware.hetero": "CPU+GPU future work; run by benchmarks/ until registered",
    "repro.hardware.sweep": "speed-up vs threads; run by benchmarks/ until registered",
    "repro.models.gradcheck": "the finite-difference oracle the gradient tests use",
}
KNOWN = {"repro", *MODULES}


def _module_path(name: str) -> pathlib.Path:
    base = ROOT / "src" / pathlib.Path(*name.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


@functools.lru_cache(maxsize=None)
def _parse(name: str) -> ast.Module:
    return ast.parse(_module_path(name).read_text(encoding="utf-8"))


def _package(name: str) -> str:
    return name if _module_path(name).name == "__init__.py" else name.rpartition(".")[0]


def _absolute(node: ast.ImportFrom, package: str) -> str:
    """The module a ``from ... import`` written in *package* names."""
    if node.level == 0:
        return node.module
    base = package.rsplit(".", node.level - 1)[0]
    return f"{base}.{node.module}" if node.module else base


def _definer(module: str, name: str) -> str:
    """The module that defines *name* as seen from *module*: a submodule,
    or where a chain of re-exports leads."""
    if f"{module}.{name}" in KNOWN:
        return f"{module}.{name}"
    for node in _parse(module).body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node, _package(module))
            for alias in node.names:
                if (alias.asname or alias.name) == name and source in KNOWN:
                    return _definer(source, alias.name)
    return module


def _uses(tree: ast.Module, package: str, skip_reexports: bool):
    """Modules of the package that *tree* imports or reaches by attribute
    (``repro.train``, ``datasets.load``); with *skip_reexports*, the
    tree's top-level ``from ... import`` lines are not followed."""
    bound = {}  # local name -> the module it names
    skipped = {
        id(node) for node in tree.body
        if skip_reexports and isinstance(node, ast.ImportFrom)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in KNOWN:
                    yield alias.name
                    top = alias.name.split(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and id(node) not in skipped:
            source = _absolute(node, package)
            if source not in KNOWN:
                continue
            for alias in node.names:
                target = _definer(source, alias.name)
                yield target
                if target == f"{source}.{alias.name}":
                    bound[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                yield _definer(bound[node.value.id], node.attr)


def test_every_module_is_reached():
    """Every module runs on some CLI path, registered artifact or
    benchmark workload: an import-graph walk from ``repro.__main__``,
    the artifact registry and ``bench/*.py`` reaches it, where a
    ``from package import name`` reaches the module defining *name* and
    a sub-package's re-exports alone reach nothing.  The top-level
    package's names are the library's front door (``import repro;
    repro.read_libsvm(...)``), so its re-exports count."""
    frontier = ["repro.__main__", "repro.experiments.registry"]
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        frontier.extend(_uses(tree, "bench", skip_reexports=False))
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        package = _package(name)
        skip = package == name != "repro"
        frontier.extend(_uses(_parse(name), package, skip_reexports=skip))
        if "." in name:
            frontier.append(name.rpartition(".")[0])  # importing runs its package
    unreached = sorted(KNOWN - reached - set(UNREACHED_BY_DESIGN))
    assert not unreached, f"nothing runs {', '.join(unreached)}"


def _source_trees():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text("utf-8"))


def _imported(tree):
    """Dotted names *tree* imports, plus any ``<context>.Pool`` it reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr == "Pool":
            yield "multiprocessing.Pool"  # mp.Pool, ctx.Pool


def test_one_process_pool():
    """``repro.utils.pool`` is the one pool implementation: no module
    reaches for the standard library's executors or ``multiprocessing``'s
    ``Pool``."""
    second = ("concurrent", "multiprocessing.pool", "multiprocessing.Pool")
    found = [
        f"{name}: {imported}"
        for name, tree in _source_trees()
        for imported in _imported(tree)
        if imported.startswith(second)
    ]
    assert found == []


def test_one_connection_loop():
    """``repro.utils.eventloop`` is the one connection loop: no other
    module imports ``selectors`` or makes a wake pair of its own."""
    found = [
        name
        for name, tree in _source_trees()
        if any(
            imported.split(".")[0] == "selectors" or imported == "socket.socketpair"
            for imported in _imported(tree)
        )
        or any(
            isinstance(node, ast.Attribute) and node.attr == "socketpair"
            for node in ast.walk(tree)
        )
    ]
    assert found == ["src/repro/utils/eventloop.py"]


def test_one_server_placement():
    """The shard server has one placement, its own supervised process:
    only the supervisor constructs a ``ShardServer``, and no switch
    selects another placement."""
    constructs = {
        name
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "ShardServer"
    }
    assert constructs == {"src/repro/distributed/supervisor.py"}
    switches = [
        path.relative_to(ROOT).as_posix()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if "server_process" in (text := path.read_text("utf-8"))
        or "ps-server-process" in text
    ]
    assert switches == []


def test_only_cache_dir_is_read_from_the_environment():
    """No ``REPRO_*`` switch changes how the package runs; the cache
    location is the one setting taken from the environment."""
    names = {
        node.value
        for _name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("REPRO_")
    }
    assert names == {"REPRO_CACHE_DIR"}
