"""The library surface that the benchmark in perfbench/ relies on.

perfbench/spans.py wraps each function its TRACED table names (looked up
with getattr) and the chart that expressions.compile_chart returns, and
perfbench/run.py times SETUP_PROBE in a fresh interpreter against src/.
These tests only read perfbench/; they change nothing there.
"""
import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from lattice_embed import cli
from lattice_embed.config import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def load(name):
    # executed from its source, so no bytecode cache is written to perfbench/;
    # registered first, as dataclasses look their module up by name
    path = PERFBENCH / f"{name}.py"
    module = sys.modules.setdefault(f"perfbench_{name}", types.ModuleType(f"perfbench_{name}"))
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


SPANS = load("spans")
WORKLOAD_MODULE = load("workloads")
WORKLOADS = WORKLOAD_MODULE.WORKLOADS


def setup_probe() -> str:
    # read from the source, so that run.py's imports and sys.path edit never run
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SETUP_PROBE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_PROBE")


def test_every_traced_function_exists():
    missing = [
        f"{module}.{function}"
        for module, function in SPANS.TRACED
        if not callable(
            getattr(importlib.import_module(f"lattice_embed.{module}"), function, None)
        )
    ]
    assert missing == []


def test_tracer_wraps_the_compiled_chart(tmp_path):
    # the curvature grid reads only the chart's partials; the energy probe
    # projects its point, which evaluates the chart the tracer wrapped
    config = WORKLOADS["chart-align"].manifold + f"output.directory = {tmp_path}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    probes = tmp_path / "probes.csv"
    probes.write_text("0.1 0.2 0.05\n")
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        assert cli.main(["curvature", str(cfg), "--grid", "2"]) == 0
        assert cli.main(["energy", str(cfg), "--points", str(probes)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = list(spans["names"])
    counts = {name: int(np.sum(spans["name"] == names.index(name))) for name in names}
    assert counts["cli.run_curvature"] == 1
    assert counts[SPANS.CHART_SPAN] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_setup_probe_runs_against_src(tmp_path, workload):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WORKLOADS[workload].manifold + f"output.directory = {tmp_path}\n")
    done = subprocess.run(
        [sys.executable, "-c", setup_probe(), str(SRC), str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert float(done.stdout.strip().splitlines()[-1]) > 0.0


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("torus-full", "408e007facf472e0"),
        ("chart-align", "86714d1ea8f285c6"),
        ("sphere-shell", "caead06944df9241"),
    ],
)
def test_seed_zero_digests_are_stable(workload, digest):
    # the digest heads every output file, so the byte-identical seed-0
    # outputs the benchmark compares need it unchanged
    inputs = WORKLOAD_MODULE.make_inputs(WORKLOADS[workload], 0, "out")
    assert parse_config(inputs.config_text).digest() == digest
