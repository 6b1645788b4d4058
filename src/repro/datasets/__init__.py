"""Datasets: Table I profiles, synthetic generators, LIBSVM IO, transforms."""

from .libsvm import parse_libsvm_lines, read_libsvm, write_libsvm
from .profiles import DATASET_NAMES, PAPER_PROFILES, DatasetProfile, get_profile
from .registry import (
    SCALES,
    ScaleSpec,
    clear_cache,
    load,
    load_for,
    load_mlp,
    scaled_profile,
    table1,
)
from .synthetic import Dataset, generate, generate_dense, generate_sparse
from .transform import group_features, mlp_dataset

__all__ = [
    "DatasetProfile",
    "PAPER_PROFILES",
    "DATASET_NAMES",
    "get_profile",
    "Dataset",
    "generate",
    "generate_sparse",
    "generate_dense",
    "read_libsvm",
    "write_libsvm",
    "parse_libsvm_lines",
    "group_features",
    "mlp_dataset",
    "ScaleSpec",
    "SCALES",
    "load",
    "load_for",
    "load_mlp",
    "scaled_profile",
    "clear_cache",
    "table1",
]
