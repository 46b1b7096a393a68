import importlib.util
from pathlib import Path

from triprime import groups

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


def test_enumeration_calls_classes_by_module_attribute(monkeypatch):
    # the tracer times groups.conjugacy_classes by rebinding the module
    # attribute; a call that bypassed it would leave that layer reading 0
    calls = []
    original = groups.conjugacy_classes

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(groups, "conjugacy_classes", counting)
    groups.catalog("dihedral", 30).element_table()
    assert len(calls) == 1
