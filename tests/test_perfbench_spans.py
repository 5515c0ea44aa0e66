"""The benchmark's tracer binds package names by string; a rename in the
package must not silently drop a span or a cache metric."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_and_caches_resolve():
    spans = _load_spans()
    for name, owner, attr, _ in spans.TARGETS:
        if isinstance(owner, type):
            assert attr in owner.__dict__, name
        else:
            assert hasattr(owner, attr), name
    for metric, cache in spans.CACHES.items():
        assert hasattr(cache, "cache_info"), metric
