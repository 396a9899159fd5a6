"""The benchmark's tracer hooks named functions and methods of pkisn; a
rename there would break `perfbench/run.py --trace 1` with a KeyError."""

import importlib.util
from pathlib import Path

from pkisn import crypto, merkle, monitor, timetree

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    append, apply_delta, hash_node = timetree.TimeTree.append, monitor.MinimizedTimeTree.apply_delta, crypto.hash_node
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert timetree.TimeTree.append is not append
        assert merkle.hash_node is not hash_node
    finally:
        uninstall()
    assert timetree.TimeTree.append is append
    assert monitor.MinimizedTimeTree.apply_delta is apply_delta
    assert merkle.hash_node is crypto.hash_node is hash_node
