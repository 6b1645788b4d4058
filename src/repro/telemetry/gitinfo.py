"""Best-effort git metadata for run manifests.

A manifest should pin the exact code that produced a result, but the
library must keep working from tarballs, installed wheels, and
environments without a ``git`` binary — so every failure mode degrades
to ``None`` rather than raising.
"""

from __future__ import annotations

import functools
import pathlib
import subprocess

__all__ = ["current_git_sha", "repo_root"]


def repo_root(start: str | pathlib.Path | None = None) -> pathlib.Path | None:
    """The enclosing directory containing ``.git``, or ``None``."""
    path = pathlib.Path(start) if start is not None else pathlib.Path(__file__)
    for candidate in [path.resolve(), *path.resolve().parents]:
        if (candidate / ".git").exists():
            return candidate
    return None


def current_git_sha(start: str | pathlib.Path | None = None) -> str | None:
    """The current commit SHA of the enclosing repository, or ``None``.

    With no *start*, the repository is the one enclosing this module.
    """
    root = repo_root(start) if start is not None else _module_root(__file__)
    return _sha_at(root) if root is not None else None


@functools.lru_cache(maxsize=None)
def _module_root(path: str) -> pathlib.Path | None:
    """:func:`repo_root` of *path*, walked once per process and path.

    Keyed on the module path rather than "no argument": resolving it
    stats every parent directory, and a grid writes one manifest per
    cell.
    """
    return repo_root(path)


@functools.lru_cache(maxsize=None)
def _sha_at(root: pathlib.Path) -> str | None:
    """``git rev-parse HEAD`` in *root*, forked once per process and root.

    The sha pins the code this process imported, which does not change
    underneath it — and a grid writes one manifest per cell, so asking
    ``git`` each time cost a fork per cell.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None
