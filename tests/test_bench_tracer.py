"""The benchmark's tracer (bench/tracer.py) wraps engine functions by their
module attribute names.  Renaming or removing one of those names breaks the
traced benchmark run, so the tracer is installed here once."""

import sys
from pathlib import Path

from randers import measure

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def test_tracer_finds_every_name_it_patches():
    sys.path.insert(0, BENCH)
    try:
        import tracer

        original = measure.shoot_hits
        restore = tracer.install(tracer.Tracer())
        try:
            assert measure.shoot_hits is not original
        finally:
            restore()
        assert measure.shoot_hits is original
    finally:
        sys.path.remove(BENCH)
