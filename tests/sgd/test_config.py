"""Tests for SGDConfig, RunConfig's field declarations and the protocol
constants."""

import re
from dataclasses import fields

import pytest

from repro.sgd import STEP_GRID, TOLERANCES, RunConfig, SGDConfig
from repro.utils.errors import ConfigurationError


class TestProtocolConstants:
    def test_paper_tolerances(self):
        assert TOLERANCES == (0.10, 0.05, 0.02, 0.01)

    def test_step_grid_powers_of_ten(self):
        assert STEP_GRID[0] == pytest.approx(1e-6)
        ratios = [b / a for a, b in zip(STEP_GRID, STEP_GRID[1:])]
        assert all(r == pytest.approx(10.0) for r in ratios)


class TestSGDConfig:
    def test_defaults(self):
        c = SGDConfig(step_size=0.1)
        assert c.max_epochs == 200
        assert c.batch_size == 512  # the paper's Hogbatch size
        assert c.eval_every == 1

    def test_frozen(self):
        c = SGDConfig(step_size=0.1)
        with pytest.raises(AttributeError):
            c.step_size = 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": 0.0},
            {"step_size": -1.0},
            {"step_size": 0.1, "max_epochs": 0},
            {"step_size": 0.1, "batch_size": 0},
            {"step_size": 0.1, "eval_every": 0},
            {"step_size": 0.1, "divergence_factor": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SGDConfig(**kwargs)


class TestRunConfigFields:
    def test_every_field_has_an_attributes_entry(self):
        """The entries are ``repro train``'s help: a field without one
        would print none."""
        doc = RunConfig.__doc__
        missing = [
            f.name
            for f in fields(RunConfig)
            if not re.search(rf"^    {f.name}:\n        \S", doc, re.M)
        ]
        assert missing == []

    @pytest.mark.parametrize(
        "name",
        ["task", "architecture", "strategy", "scale", "representation", "backend"],
    )
    def test_closed_fields_are_checked_against_their_choices(self, name):
        (field,) = (f for f in fields(RunConfig) if f.name == name)
        assert field.metadata["choices"]
        with pytest.raises(ConfigurationError, match=f"unknown {name} 'bogus'; "):
            RunConfig(**{"task": "lr", "dataset": "w8a", name: "bogus"})
