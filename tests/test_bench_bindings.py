"""Every name the traced benchmark patches must exist.

bench/tracing.py wraps library functions at the names their callers look up
and raises LookupError on a missing one, which fails every traced run.  This
test fails first, at tier 1, when a refactor drops or renames such a name.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import BINDINGS, Tracer  # noqa: E402


def _bound():
    """label -> the object each binding's name holds now."""
    bound = {}
    for binding in BINDINGS:
        owner, name = binding.owner_and_name()
        assert name in vars(owner), f"traced binding {binding.label} does not exist"
        bound[binding.label] = vars(owner)[name]
    return bound


def test_every_traced_binding_resolves():
    assert len(_bound()) == len(BINDINGS)


def test_tracer_patches_every_binding_and_restores_it():
    before = _bound()
    with Tracer():
        during = _bound()
        assert all(during[label] is not before[label] for label in before)
    assert all(value is before[label] for label, value in _bound().items())
