"""Sanity checks over the example scripts.

The examples run at `small` scale (seconds to minutes each), so the
test suite verifies structure — each compiles, documents itself, and
exposes a ``main()`` — and executes the fastest one end to end.
Full runs are exercised manually / by the benchmark artifacts.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


class TestExampleStructure:
    def test_expected_inventory(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart",
            "hogwild_sparsity_study",
            "mlp_scaling_study",
            "custom_dataset_libsvm",
            "parallel_strategies",
        } <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_compiles_with_docstring_and_main(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.stem} lacks a module docstring"
        func_names = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" in func_names, f"{path.stem} lacks main()"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_mentions_how_to_run(self, path):
        assert "Run:" in path.read_text(encoding="utf-8")


class TestQuickstartExecution:
    def test_quickstart_runs_clean(self, tmp_path):
        """Execute the quickstart end to end in a subprocess."""
        script = next(p for p in EXAMPLES if p.stem == "quickstart")
        env = {"REPRO_CACHE_DIR": str(tmp_path), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=600,
            env={**env},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "time per iteration" in proc.stdout
        assert "within" in proc.stdout
