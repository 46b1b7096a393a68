import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def test_traced_functions_resolve():
    # the benchmark's tracer names functions by (module, attribute); a rename
    # in the package must not leave one of them dangling
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TRACED
    for module, attr in trace.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
