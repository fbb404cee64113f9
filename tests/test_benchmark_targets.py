"""The names the benchmark's tracer wraps must exist in the library.

perfbench/tracing.py looks each TARGETS entry up by name at run time, and a
"Class.method" entry must sit in the class's own __dict__. A rename would
otherwise surface only as a crash of the traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for module_name, attr, _ in _load_tracing().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or not callable(vars(cls).get(meth)):
                missing.append(f"{module_name}.{attr}")
        elif not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"trace targets not found: {missing}"
