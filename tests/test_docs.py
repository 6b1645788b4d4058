"""The documents name only what exists.

Every back-ticked dotted ``repro.…`` name in a tracked Markdown file
resolves to a module or an attribute, so a rename or a deletion that
forgets a doc row fails here.  A trailing ``*`` matches a submodule
prefix (``repro.experiments.table*``).  At the top level only the
reference documents are checked: the change log, the roadmap and the
other planning notes beside them are history and may name what is gone.

DESIGN.md's per-experiment index names its modules without the
``repro.`` prefix (``sgd.synchronous``); each name in its "Implementing
modules" column must resolve as ``repro.<name>``.
"""

import importlib
import pathlib
import pkgutil
import re
import subprocess

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = {
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md",
    "SNIPPETS.md",
}
MODULES = {"repro"} | {
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
}
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+\*?")


def _documents():
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.md"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):  # an exported tree
        listed = [
            p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*.md")
            if not any(part.startswith(".") for part in p.relative_to(ROOT).parts)
        ]
    return [ROOT / name for name in sorted(listed) if "/" in name or name in REFERENCE]


def _resolves(name: str) -> bool:
    if name.endswith("*"):
        return any(m.startswith(name[:-1]) for m in MODULES)
    parts = name.split(".")
    cut = max(i for i in range(1, len(parts) + 1) if ".".join(parts[:i]) in MODULES)
    obj = importlib.import_module(".".join(parts[:cut]))
    for attr in parts[cut:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _index_modules() -> list[str]:
    """The back-ticked names of DESIGN.md §4's "Implementing modules" column."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 4.", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in section.splitlines()
            if line.startswith("|")]
    column = [cell.strip() for cell in rows[0]].index("Implementing modules")
    return [name for row in rows[2:] for name in SPAN.findall(row[column])]


def test_every_documented_name_resolves():
    stale = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in _documents()
        for span in SPAN.findall(FENCE.sub("", path.read_text(encoding="utf-8")))
        for name in NAME.findall(span)
        if not _resolves(name)
    ]
    assert stale == []


def test_experiment_index_modules_resolve():
    names = _index_modules()
    assert len(names) > 10
    stale = [name for name in names if not _resolves(f"repro.{name}")]
    assert not stale, f"DESIGN.md §4 names modules that do not exist: {stale}"
