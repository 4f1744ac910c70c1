"""Engine benchmark: one seeded workload, timed end to end or traced by layer.

    python3 bench/run.py --workload geodesic-embed --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the engine is imported from its src/.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it list every
metric by name with its unit and sample count, and every failed op with its
stratum and reason.  The full record (environment, per-stratum counts,
failures, raw latencies) is written to bench/results/, and a traced run also
writes its spans there.

A run is a closed loop with one client: whole rounds (workloads.STRATA) run
back to back while the next round is expected to end within --seconds, and
for at least workloads.MIN_ROUNDS rounds.  Every time below is at the
reference speed of hostspeed.py: the seconds measured, scaled by how much a
fixed reference kernel timed around the op is slowed down by other tenants
of the host.  The raw seconds are in the record.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh interpreters of the time to
               import randers and build the workload's profiles, scaled by
               hostspeed.REF_IMPORT_S over the median time of a reference
               import (setup_probe.py)
  ops_per_s    ops per second of engine time in the median round; a median
               over rounds, so that one 10-70 s shooting-fallback op
               (distance-pairs) does not set the figure of the whole run
  op_p50_ms    median op latency
  op_tail_ms   latency at TAIL_PERCENTILE, fixed so that the figure stays
               comparable as a faster engine fits more ops into a run; at the
               highest percentile with at least ten ops beyond it when the
               run holds too few ops for that; the largest latency when it
               holds fewer than 20
  peak_rss_mb  peak resident memory of this process
--trace 1 first runs untraced for half of --seconds, then replays the same
rounds with every layer wrapped (tracer.py) and reports the per-layer
metrics, normalised per op, with the tracing overhead.  Layer times are raw
seconds; the overhead compares engine times at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("distance-pairs", "cutlocus-verify", "geodesic-embed", "cutlocus-shoot")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
HARD_LIMIT_S = 110.0  # abort the op in flight; a run must end within 180 s


class RunDeadline(BaseException):
    """Raised by the alarm at HARD_LIMIT_S; a BaseException so that no
    handler inside the engine swallows it."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------------ set-up


def measure_setup(workload: str) -> dict:
    """Seconds a fresh interpreter takes to import randers and build the
    workload's profiles, and, alternating with them, seconds one takes to
    import only the numpy and scipy modules randers imports."""
    out = {"probe_s": [], "reference_s": []}
    for _ in range(SETUP_REPEATS):
        for key, arg in (("reference_s", "reference"), ("probe_s", workload)):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), arg],
                capture_output=True, text=True, timeout=60, env=os.environ.copy(),
                check=True)
            out[key].append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ------------------------------------------------------------------ timing


def run_rounds(wl, profiles, budget_s: float, min_rounds: int,
               n_rounds: int | None = None, tracer=None) -> dict:
    """Run whole rounds, at least min_rounds of them, while the next one is
    expected (by the median round so far) to end within budget_s; or exactly
    n_rounds of them.  Returns per-op records and per-round engine times at
    the reference speed (hostspeed.py).  Each op is timed alone; its oracle
    check runs outside the timed region."""
    ops_done, round_times, raw_round_times = [], [], []
    t_begin = time.perf_counter()
    k = 0
    cut = False
    try:
        with hostspeed.Timer() as timer:
            while k < wl.max_rounds and (n_rounds is None or k < n_rounds):
                ops = wl.round(k)
                results, errors, raw, latencies = [], [], [], []
                for i, op in enumerate(ops):
                    if tracer is not None:
                        tracer.current_op = len(ops_done) + i
                        span = tracer.open(tracer.name_id("op"))
                    try:
                        (res, err), raw_s, lat_s = timer.time(_call, op.fn, profiles)
                    except RunDeadline:
                        ops_done.append(_record(k, i, op, None, None,
                                                ["aborted at the run deadline"]))
                        raise
                    if tracer is not None:
                        tracer.close(span)
                    results.append(res)
                    errors.append(err)
                    raw.append(raw_s)
                    latencies.append(lat_s)
                for i, (op, reasons) in enumerate(zip(ops, wl.check(ops, results))):
                    ops_done.append(_record(k, i, op, latencies[i], raw[i],
                                            [errors[i]] if errors[i] else reasons))
                round_times.append(sum(latencies))
                raw_round_times.append(sum(raw))
                k += 1
                elapsed = time.perf_counter() - t_begin
                if (n_rounds is None and k >= min_rounds
                        and elapsed + statistics.median(raw_round_times) > budget_s):
                    break
    except RunDeadline:
        cut = True
    return {"ops": ops_done, "round_times": round_times, "rounds": len(round_times),
            "cut": cut}


def _call(fn, profiles):
    """(result, None), or (None, reason) when the op raises: a failed op."""
    try:
        return fn(profiles), None
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"


def _record(k, i, op, latency, raw, reasons) -> dict:
    return {"round": k, "index": i, "stratum": op.stratum, "latency_s": latency,
            "raw_latency_s": raw, "failed": bool(reasons), "reasons": reasons,
            "inputs": op.inputs}


def tail(latencies: list[float]) -> tuple[float, str]:
    """(value, percentile name) of the tail latency; see the module doc."""
    n = len(latencies)
    if n < 20:
        return max(latencies), "max"
    pct = TAIL_PERCENTILE
    while n * (100 - pct) / 100.0 < 10.0:
        pct -= 1
    return _percentile(latencies, pct), f"p{pct}"


def _percentile(values, pct: int) -> float:
    """Linearly interpolated percentile, as numpy.percentile computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(run: dict, setup: dict) -> dict:
    lat = [r["latency_s"] for r in run["ops"] if r["latency_s"] is not None]
    per_round = sum(r["round"] == 0 for r in run["ops"])
    tail_s, tail_name = tail(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup["probe_s"]) * hostspeed.REF_IMPORT_S
                    / statistics.median(setup["reference_s"]), "s", len(setup["probe_s"]),
                    "fresh interpreters"),
        "ops_per_s": (per_round / statistics.median(run["round_times"]), "1/s",
                      run["rounds"], "rounds, median"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms", len(lat), "ops"),
        "op_tail_ms": (1e3 * tail_s, "ms", len(lat), f"ops, {tail_name}"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1, "process"),
    }


# ------------------------------------------------------------------ tracing


def per_layer(tracer, n_ops: int, wall_traced: float, wall_plain: float) -> dict:
    totals, counts = tracer.totals(), tracer.counts
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    per_op = lambda x: x / n_ops
    ratio = lambda a, b: a / b if b else 0.0
    out = {}

    def timed(metric, span, calls=None, sep="."):
        t = totals.get(span, empty)
        out[f"{metric}{sep}s"] = (per_op(t["s"]), "s/op")
        out[f"{metric}{sep}self_s"] = (per_op(t["self_s"]), "s/op")
        if calls:
            out[calls] = (per_op(t["calls"]), "count/op")
        return t

    quad = timed("geodesics.quad", "geodesics.quad", "geodesics.quad.calls")
    out["geodesics.quad.integrand_evals"] = (
        per_op(counts["geodesics.quad.integrand_evals"]), "count/op")
    timed("measure.connector_build", "measure.connector_build",
          "measure.connector_builds", sep="_")
    queries = timed("measure.connector_query", "measure.connector_query",
                    "measure.connector_queries", sep="_")
    out["measure.connector_empty_frac"] = (
        ratio(counts["measure.connector_empty"], queries["calls"]), "ratio")
    timed("measure.shooting_fallback", "measure.shooting_fallback",
          "measure.shooting_fallbacks", sep="_")
    out["measure.root_iters"] = (per_op(counts["measure.root_iters"]), "count/op")
    out["measure.root_iters_invalid"] = (per_op(counts["measure.root_iters_invalid"]),
                                         "count/op")
    timed("measure.distance_F", "measure.distance_F", "measure.distance_F.calls")

    ode = timed("odesolve", "odesolve.integrate", "odesolve.calls")
    steps, rejected = counts["odesolve.steps"], counts["odesolve.rejected"]
    out["odesolve.steps"] = (per_op(steps), "count/op")
    out["odesolve.rejected"] = (per_op(rejected), "count/op")
    out["odesolve.accept_frac"] = (ratio(steps, steps + rejected), "ratio")
    out["odesolve.rhs_evals"] = (per_op(counts["odesolve.rhs_evals"]), "count/op")
    out["odesolve.us_per_step"] = (1e6 * ratio(ode["s"], steps), "us")
    timed("geodesics.integrate_h", "geodesics.integrate_h", "geodesics.integrate_h.calls")

    timed("measure.shoot_hits", "measure.shoot_hits", "measure.shoot_hits.calls")
    rays = tracer.children_of("geodesics.integrate_h", "measure.shoot_hits")
    out["measure.shoot_rays"] = (per_op(rays), "count/op")
    out["measure.shoot_rays_per_hit"] = (ratio(rays, counts["measure.shoot_hits.hits"]), "ratio")
    for name in ("verify_cut_point", "cut_locus", "first_conjugate", "jacobi"):
        timed("conjugate." + name, "conjugate." + name)

    out["geodesics.dense_evals"] = (per_op(counts["geodesics.dense_evals"]), "count/op")
    timed("geodesics.f_length", "geodesics.f_length")
    timed("measure.clairaut_verify", "measure.clairaut_verify")
    timed("zermelo.eval_F", "zermelo.eval_F", "zermelo.eval_F.calls")

    timed("embed.pullback_check", "embed.pullback_check")
    timed("embed.embed_point", "embed.embed_point", "embed.embed_point.calls")
    timed("embed.height", "embed.height")
    timed("embed.assert_embeddable", "embed.assert_embeddable")
    timed("embed.quad", "embed.quad", "embed.quad.calls")

    construct = totals.get("profile.construct", empty)
    out["profile.construct_s"] = (construct["s"], "s")
    out["profile.construct_self_s"] = (construct["self_s"], "s")
    out["profile.m_evals"] = (per_op(counts["profile.m_evals"]), "count/op")

    out["bench.op.self_s"] = (per_op(totals.get("op", empty)["self_s"]), "s/op")
    out["trace.ops"] = (n_ops, "count")
    out["trace.spans"] = (len(tracer.name), "count")
    out["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    out["trace.overhead_frac"] = (ratio(wall_traced - wall_plain, wall_plain), "ratio")
    return out


# ------------------------------------------------------------------ output


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit, "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def summarize_failures(ops: list[dict]) -> tuple[dict, list[dict]]:
    by_stratum = {}
    for r in ops:
        s = by_stratum.setdefault(r["stratum"], {"attempted": 0, "failed": 0})
        s["attempted"] += 1
        s["failed"] += r["failed"]
    failures = [{k: r[k] for k in ("round", "index", "stratum", "reasons", "inputs",
                                   "latency_s")} for r in ops if r["failed"]]
    return by_stratum, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "randers" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'randers'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, for this process and the set-up probes
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    def on_alarm(signum, frame):
        raise RunDeadline()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    try:
        setup = {} if args.trace else measure_setup(args.workload)
        import profiles as profile_specs
        import workloads
        wl = workloads.Workload(args.workload, args.seed)
        profiles = profile_specs.build(args.workload)
        if args.trace:
            import tracer as tracing
            plain = run_rounds(wl, profiles, args.seconds / 2.0,
                               max(1, wl.min_rounds // 2))
            trc = tracing.Tracer()
            restore = tracing.install(trc)
            try:
                traced_profiles = trc.profiles(lambda: profile_specs.build(args.workload))
                # the alarm fires once: after a cut there is no time to replay
                traced = run_rounds(wl, traced_profiles, 0.0, 0, tracer=trc,
                                    n_rounds=0 if plain["cut"] else plain["rounds"])
            finally:
                restore()
            runs = [plain, traced]
        else:
            runs = [run_rounds(wl, profiles, args.seconds, wl.min_rounds)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    ops = [r for run in runs for r in run["ops"]]
    if not runs[0]["round_times"]:
        print("error: no round completed before the run deadline", file=sys.stderr)
        return 1
    by_stratum, failures = summarize_failures(ops)
    if args.trace:
        # overhead over the rounds both passes completed
        both = runs[1]["rounds"]
        wall = [sum(r["round_times"][:both]) for r in runs]
        n_ops = trc.totals().get("op", {"calls": 0})["calls"]
        layer = per_layer(trc, max(n_ops, 1), wall[1], wall[0])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        table = [(k, v, u, "") for k, (v, u) in layer.items()]
    else:
        e2e = end_to_end(runs[0], setup)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _, _) in e2e.items()}
        table = [(k, v, u, f"n={n} {what}") for k, (v, u, n, what) in e2e.items()]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples": setup, "metrics": metrics,
        "rounds": [run["rounds"] for run in runs],
        "strata_per_round": workloads.STRATA[args.workload],
        "by_stratum": by_stratum, "failures": failures,
        "latencies_s": [[r["latency_s"] for r in run["ops"]] for run in runs],
        "raw_latencies_s": [[r["raw_latency_s"] for r in run["ops"]] for run in runs],
    }
    if args.trace:
        trc.save(RESULTS_DIR / f"{stem}-spans.npz")
        record["spans_file"] = f"{stem}-spans.npz"
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, value, unit, note in table:
        print(f"{name:<36} {value:>16.6g} {unit:<9} {note}")
    for f in failures:
        print(f"FAILED {f['stratum']} round {f['round']} op {f['index']} "
              f"{json.dumps(f['inputs'])}: {'; '.join(f['reasons'])}")
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
