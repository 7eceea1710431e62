"""The end-to-end benchmark's tracer can bind every entry point it names.

``benchmarks/e2e/tracer.py`` times each layer from outside by rebinding
named methods on their classes (from the class's own ``__dict__``) and
named functions in every module that holds them.  A refactor that moves
or removes one of those names (say, ``IORWorkload.trace`` inherited from
the base class instead of defined on ``IORWorkload``) makes
``Recorder.install`` raise and fails every traced sample.  This test
loads the tracer by path, without editing it, and installs and
uninstalls it once.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_binds_every_entry_point_and_uninstall_restores_it():
    tracer = load_tracer()
    for _, target, _ in tracer.SPAN_POINTS:
        importlib.import_module(target.partition(":")[0])
    recorder = tracer.Recorder()
    try:
        recorder.install()
        bindings = list(recorder.bindings)
        bound = {(owner, attr) for owner, attr, _ in bindings}
        for _, target, attrs in tracer.SPAN_POINTS:
            module_name, _, cls_name = target.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            for attr in attrs:
                assert (owner, attr) in bound, f"{target}.{attr} was not rebound"
    finally:
        recorder.uninstall()
    assert not recorder.bindings
    for owner, attr, original in bindings:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
