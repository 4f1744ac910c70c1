"""The surfaces each workload runs on.

Kept apart from workloads.py so that the set-up probe can time the import of
randers and the construction of these profiles in a fresh interpreter
without first importing anything else.
"""

from __future__ import annotations

from randers import make_custom, make_paraboloid

# The flat and sphere profiles are the ones tests/conftest.py defines; their
# navigation distances have closed forms (oracles.py).
FLAT = {"m": "r", "m1": "1", "m2": "0", "mu": 0.04, "r_max": 20.0}
SPHERE = {"m": "sin(r)", "m1": "cos(r)", "m2": "-sin(r)", "mu": 0.2, "r_max": 2.8}


def build(workload: str) -> dict:
    """Profiles of one workload, keyed by the names its ops use."""
    if workload == "distance-pairs":
        return {
            "paraboloid": make_paraboloid(1.0),
            "flat": make_custom(**FLAT),
            "sphere": make_custom(**SPHERE),
        }
    if workload in ("cutlocus-verify", "cutlocus-shoot"):
        return {"mu1": make_paraboloid(1.0), "mu0.5": make_paraboloid(0.5)}
    if workload == "geodesic-embed":
        return {"paraboloid60": make_paraboloid(1.0, r_max=60.0)}
    raise ValueError(f"unknown workload {workload!r}")
