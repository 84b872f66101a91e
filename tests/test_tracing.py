"""The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.

The tracer rebinds names where boolrel's modules look them up, so a name
that moves or a handler that captured a function at import would silently
drop spans from the per-layer metrics.
"""

import importlib
import importlib.util
import os

from boolrel import cli

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "tracing.py",
)
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def test_every_wrapped_name_resolves():
    for module, name, _ in tracing.WRAPPED:
        assert hasattr(importlib.import_module("boolrel." + module), name), (module, name)
    for module, cls, method, _ in tracing.WRAPPED_METHODS:
        owner = getattr(importlib.import_module("boolrel." + module), cls)
        assert method in vars(owner), (module, cls, method)


def test_sample_query_records_its_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, _ = cli.run([
            "sample", "--formula", "(x1&x2)|!x3", "--x", "110", "--set", "1",
            "--delta", "3/4", "--gamma", "1/10", "--seed", "7",
        ])
    finally:
        tracer.uninstall()
    assert code in (cli.EXIT_YES, cli.EXIT_NO)
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"cli.run", "relevance.sample_relevance"} <= recorded
