"""The benchmark tracer looks each traced function up by name in its owner's
namespace; a moved or renamed function must fail here, not only at run time
of a traced benchmark pass."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    for name, owner, attr, *_ in targets:
        # Tracer.install reads vars(owner)[attr]: an inherited name would not do
        assert attr in vars(owner), (name, owner, attr)
        assert callable(vars(owner)[attr]), (name, owner, attr)
