"""The names that perfbench's traced mode (`run.py --trace 1`) wraps, and
the attributes its hooks read.

perfbench/tracing.py replaces package functions and methods by name, so a
rename or a changed attribute in the package breaks a traced run without
failing any other test.  The module is loaded from its file, without
writing bytecode next to it.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from kmgroups.cartan import path_gcm
from kmgroups.groupgen import chi_minus, chi_plus
from kmgroups.weightmod import DominantWeight, build_module

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_functions_resolve(tracing):
    for mod, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)


def test_traced_methods_are_in_their_class_dict(tracing):
    for mod, cls_name, attr, _ in tracing.METHODS:
        assert attr in getattr(importlib.import_module(mod), cls_name).__dict__, (
            cls_name, attr,
        )


def test_product_exposes_the_traced_attributes():
    module = build_module(path_gcm(2), DominantWeight((1, 1)), 2)
    prod = chi_plus(module, 0, 1) @ chi_minus(module, 1, 1)
    assert isinstance(prod.blocks, dict) and prod.blocks
    assert set(prod.exact) == set(module.slices)
    assert prod.module.total_rank() == module.total_rank()


def test_build_hook_reads_the_module(tracing):
    # the hook run after build_module reads the slices and every ops block
    module = build_module(path_gcm(2), DominantWeight((1, 1)), 4)
    tracer = tracing.Tracer()
    tracer._on_build((), module)
    metrics = tracer.metrics()
    assert metrics["weightmod.slices"] == len(module.slices)
    assert metrics["weightmod.nonzero_slice_ratio"] == 1.0
    assert metrics["weightmod.basis_vectors"] == module.total_rank() == 8
    assert metrics["weightmod.monomials"] == sum(
        len(s.monomials) for s in module.slices.values()
    )
    assert metrics["weightmod.max_entry_bits"] >= 1


def test_the_package_reads_no_tracer_only_view():
    # .exact and .blocks are kept for the tracer and the tests alone, so
    # that they can go without a change to the package
    reads = [
        (path.name, node.lineno, node.attr)
        for path in sorted((ROOT / "src" / "kmgroups").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("exact", "blocks")
    ]
    assert not reads
