"""The traced benchmark's targets still name graphseq's functions."""

import importlib.util
from pathlib import Path

import graphseq
from graphseq import cli  # noqa: F401  imports every module the tracer wraps, as the benchmark does

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# removed on purpose; the tracer leaves its metrics at 0 (ROADMAP item 9)
GONE = {("constants", "rho_amalgamated")}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # Tracer.install raises AttributeError on a missing owner, which would
    # fail every traced round; a missing final attribute reads as 0
    for module_name, path, name, _ in load_spans().TARGETS:
        owner = getattr(graphseq, module_name)
        *outer, attr = path.split(".")
        for part in outer:
            assert hasattr(owner, part), (name, module_name, path)
            owner = getattr(owner, part)
        if (module_name, path) not in GONE:
            assert hasattr(owner, attr), (name, module_name, path)
