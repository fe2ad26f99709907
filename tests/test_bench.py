"""The benchmark tracer in ``bench/`` against the package it wraps."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_target():
    # a rename or deletion of a wrapped name fails here, not in a traced run
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    targets = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    assert len(targets) == 27
    before = [_current(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [_current(owner, attr) for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(_current(owner, attr) is b
               for (owner, attr), b in zip(targets, before))
