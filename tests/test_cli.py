"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import _field_help, _make_context, _run_config, build_parser, main
from repro.faults import FaultPlan
from repro.sgd import RunConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_table_commands_registered(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9"):
            args = parser.parse_args([cmd, "--scale", "tiny"])
            assert args.command == cmd
            assert args.scale == "tiny"

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.task == "lr"
        assert args.architecture == "cpu-par"

    def test_rejects_unknown_task(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--task", "cnn"])

    def test_every_help_renders(self, capsys):
        """Top-level ``--help`` lists every subcommand's help string, so
        one unescaped ``%`` there breaks it; each subcommand's own
        ``--help`` formats its arguments' strings."""
        import argparse

        parser = build_parser()
        (subparsers,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for argv in [[], *([cmd] for cmd in subparsers.choices)]:
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args([*argv, "--help"])
            assert exit_.value.code == 0, argv
            assert "usage:" in capsys.readouterr().out


class TestConfigFlags:
    """``repro train``'s options are generated from RunConfig's fields."""

    def test_train_help_lists_every_field(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        out = capsys.readouterr().out
        for f in fields(RunConfig):
            assert f"--{f.name.replace('_', '-')}" in out, f.name

    def test_help_is_plain_text(self):
        for name, text in _field_help().items():
            assert text and not re.search(r"`|:\w+:", text), name

    @pytest.mark.parametrize(
        "legacy, generated, expected",
        [
            (["--step", "0.5"], ["--step-size", "0.5"], {"step_size": 0.5}),
            (["--epochs", "7"], ["--max-epochs", "7"], {"max_epochs": 7}),
            (
                ["--tolerance", "0.2"],
                ["--early-stop-tolerance", "0.2"],
                {"early_stop_tolerance": 0.2},
            ),
            (
                ["--backend", "ps", "--nodes", "1", "--ps-checkpoint-dir", "ck"],
                ["--backend", "ps", "--nodes", "1", "--checkpoint-dir", "ck"],
                {"checkpoint_dir": "ck"},
            ),
            (
                ["--backend", "ps", "--nodes", "1", "--ps-checkpoint-every", "9"],
                ["--backend", "ps", "--nodes", "1", "--checkpoint-every", "9"],
                {"checkpoint_every": 9},
            ),
            (
                ["--backend", "ps", "--nodes", "1", "--ps-checkpoint-seconds", "2.5"],
                ["--backend", "ps", "--nodes", "1", "--checkpoint-seconds", "2.5"],
                {"checkpoint_seconds": 2.5},
            ),
            (
                ["--backend", "shm", "--threads", "2", "--seed", "3",
                 "--inject-fault", "kill@2", "--inject-fault", "stall@3:w1"],
                ["--backend", "shm", "--threads", "2", "--seed", "3",
                 "--fault-plan", "kill@2", "--fault-plan", "stall@3:w1"],
                {"fault_plan": FaultPlan.parse(["kill@2", "stall@3:w1"], seed=3)},
            ),
        ],
        ids=[
            "step", "epochs", "tolerance", "ps-checkpoint-dir",
            "ps-checkpoint-every", "ps-checkpoint-seconds", "inject-fault",
        ],
    )
    def test_legacy_spelling_builds_the_same_config(self, legacy, generated, expected):
        parser = build_parser()
        old = _run_config(parser.parse_args(["train", *legacy]))
        assert old == _run_config(parser.parse_args(["train", *generated]))
        for name, value in expected.items():
            assert getattr(old, name) == value, name

    def test_representation_reaches_the_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        rc = main(
            [
                "train", "--scale", "tiny", "--epochs", "2", "--representation",
                "dense", "--manifest-out", str(manifest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert json.loads(manifest.read_text())["config"]["representation"] == "dense"


class TestMakefileRecipesParse:
    """Every ``python -m repro`` command a Makefile target runs parses
    under the current parser, so the recipes cannot drift from it."""

    ROOT = Path(__file__).resolve().parents[1]

    def repro_commands(self, target):
        out = subprocess.run(
            ["make", "-n", "-B", "-C", str(self.ROOT), target],
            capture_output=True, text=True, check=True,
        ).stdout.replace("\\\n", " ")
        for line in out.splitlines():
            words = shlex.split(line)
            for i in range(len(words) - 2):
                if words[i + 1 : i + 3] == ["-m", "repro"]:
                    argv = words[i + 3 :]
                    end = [j for j, w in enumerate(argv) if w[0] in "><|&;"]
                    yield argv[: end[0] if end else None]

    def test_every_repro_recipe_parses(self):
        if shutil.which("make") is None:
            pytest.skip("make is not installed")
        phony = re.search(r"^\.PHONY:(.*)$", (self.ROOT / "Makefile").read_text(), re.M)
        parser, targets = build_parser(), set()
        for target in phony.group(1).split():
            for argv in self.repro_commands(target):
                targets.add(target)
                try:
                    parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"make {target}: cannot parse {shlex.join(argv)}")
        assert len(targets) >= 9, sorted(targets)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "covtype" in out and "MLP architecture" in out

    def test_train(self, capsys):
        rc = main(
            [
                "train", "--task", "lr", "--dataset", "w8a", "--scale", "tiny",
                "--step", "1.0", "--epochs", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "time_per_iter_ms" in out
        assert "epochs_to_1pct" in out

    GRIDSEARCH = [
        "gridsearch", "--task", "lr", "--dataset", "w8a", "--scale", "tiny",
        "--architecture", "cpu-seq", "--epochs", "60", "--tolerance", "0.10",
    ]

    def test_gridsearch(self, capsys):
        rc = main(self.GRIDSEARCH)
        out = capsys.readouterr().out
        assert rc == 0
        assert "lr/w8a/asynchronous/cpu-seq: max_epochs=60" in out
        assert out.count("step=") == 10
        assert "best step size: 10.0" in out

    def test_gridsearch_jobs_output_identical(self, capsys):
        from repro.experiments import shutdown_grid_pool

        assert main(self.GRIDSEARCH) == 0
        serial = capsys.readouterr().out
        try:
            assert main([*self.GRIDSEARCH, "--jobs", "2"]) == 0
        finally:
            shutdown_grid_pool()
        assert capsys.readouterr().out == serial

    def test_gridsearch_epoch_budget_from_config(self, capsys):
        args = build_parser().parse_args(["gridsearch"])
        assert args.max_epochs is None
        main(
            [
                "gridsearch", "--scale", "tiny", "--strategy", "synchronous",
                "--architecture", "cpu-seq", "--tolerance", "0.5",
            ]
        )
        assert "max_epochs=400" in capsys.readouterr().out

    def test_gridsearch_table_merges_into_path(self, tmp_path, capsys):
        from repro.experiments.steps import read_table, write_table

        path = tmp_path / "steps.json"
        kept = {"grid": [1.0], "max_epochs": 1, "step": None, "epochs": None}
        write_table(path, {"svm/news/synchronous/*": kept})
        rc = main(
            [
                "gridsearch", "--table", str(path), "--scale", "tiny",
                "--tasks", "lr", "--datasets", "w8a",
            ]
        )
        capsys.readouterr()
        assert rc == 0
        rows, packaged = read_table(path), read_table()
        assert rows.pop("svm/news/synchronous/*") == kept
        assert sorted(rows) == [k for k in sorted(packaged) if k.startswith("lr/w8a/")]
        for key, row in rows.items():
            assert row["grid"] == packaged[key]["grid"], key
            assert row["max_epochs"] == packaged[key]["max_epochs"], key
            assert row["step"] is None or row["step"] in row["grid"], key

    def test_experiments_report_resumes_byte_identical(self, tmp_path, capsys):
        """The report depends on no timing: a resumed rerun of the same
        grid prints the same document, its shape checks included."""
        argv = [
            "experiments", "--tasks", "lr", "--datasets", "w8a", "--scale",
            "tiny", "--tolerance", "0.05", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("# EXPERIMENTS")
        assert "| `table2/complete` | reproduced |" in first

    def test_fig6(self, capsys):
        assert main(["fig6", "--scale", "tiny"]) == 0
        assert "par/seq" in capsys.readouterr().out


class TestLadderCommand:
    def test_ladder(self, capsys):
        rc = main(["ladder", "--task", "lr", "--dataset", "w8a", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tolerance ladder" in out
        assert "crossover" in out


class TestOutputsIntoMissingDirectory:
    """``--trace-out`` / ``--manifest-out`` create the directory they
    name: a run that already did its work must not die writing it down."""

    def test_train_trace_and_manifest(self, tmp_path, capsys):
        trace, manifest = tmp_path / "a" / "b" / "t.json", tmp_path / "c" / "m.json"
        rc = main(
            [
                "train", "--task", "lr", "--dataset", "w8a", "--scale", "tiny",
                "--epochs", "2", "--trace-out", str(trace),
                "--manifest-out", str(manifest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert "traceEvents" in json.loads(trace.read_text())
        assert json.loads(manifest.read_text())["counters"]

    def test_experiments_grid_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "nope" / "gm.json"
        rc = main(
            [
                "experiments", "--artifacts", "table2", "--tasks", "lr",
                "--datasets", "w8a", "--scale", "tiny", "--tolerance", "0.05",
                "--manifest-out", str(manifest),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        schema = json.loads(manifest.read_text())["schema"]
        assert schema == "repro.telemetry/grid-manifest/v1"

    def test_serve_manifest(self, tmp_path):
        from repro.serving import request_once
        from repro.sgd import save_results, train

        model = tmp_path / "model.json"
        save_results(train("lr", "w8a", scale="tiny", max_epochs=2), model)
        manifest = tmp_path / "nope" / "serve.json"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--model", str(model),
                "--no-watch", "--manifest-out", str(manifest),
            ],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            host, port = proc.stdout.readline().split()[-1].rsplit(":", 1)
            request_once(host, int(port), {"op": "shutdown"})
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdout.close()
            proc.wait()
        schema = json.loads(manifest.read_text())["schema"]
        assert schema == "repro.telemetry/serve-manifest/v1"


class TestRunManifestReruns:
    """A run manifest pins every field of the run it records, so the
    manifest alone reruns it."""

    def test_train_manifest_reruns_bit_for_bit(self, tmp_path, capsys):
        from repro.sgd import load_results, train

        manifest, model = tmp_path / "m.json", tmp_path / "model.json"
        rc = main(
            [
                "train", "--task", "lr", "--dataset", "w8a", "--scale", "tiny",
                "--epochs", "40", "--tolerance", "0.5",
                "--manifest-out", str(manifest), "--model-out", str(model),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        config = json.loads(manifest.read_text())["config"]
        for name in (
            "max_epochs", "early_stop_tolerance", "batch_size", "seed",
            "representation", "backend",
        ):
            assert name in config, name
        assert (config["max_epochs"], config["early_stop_tolerance"]) == (40, 0.5)
        (ran,) = load_results(model)
        rerun = train(**config)
        assert rerun.curve.epochs == ran.curve.epochs
        assert rerun.curve.losses == ran.curve.losses
        assert np.array_equal(rerun.params, ran.params)
        # Without the recorded tolerance the rerun stops elsewhere.
        default = train(**{**config, "early_stop_tolerance": 0.01})
        assert default.curve.losses != ran.curve.losses

    def test_grid_cell_manifest_is_its_context_config(self, tmp_path, capsys):
        argv = [
            "experiments", "--artifacts", "table2", "--tasks", "lr",
            "--datasets", "w8a", "--scale", "tiny", "--tolerance", "0.05",
            "--store", str(tmp_path / "store"),
        ]
        manifest = tmp_path / "gm.json"
        assert main([*argv, "--manifest-out", str(manifest)]) == 0
        capsys.readouterr()
        ctx = _make_context(build_parser().parse_args(argv))
        records = json.loads(manifest.read_text())["cells"]
        assert {r["source"] for r in records} == {"executed", "recosted"}
        for record in records:
            expected = ctx.config_for(**record["cell"]).to_dict()
            assert record["manifest"]["config"] == expected
