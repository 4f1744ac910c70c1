"""Spans and counters around the engine's layers, recorded from outside.

install() rebinds module attributes of the randers package to recording
wrappers and returns a function that puts the originals back; nothing under
src/ is edited.  A name that one module imports from another is rebound in
every module that calls it (measure.integrate_h as well as
geodesics.integrate_h), because a call resolves the name in the caller's
namespace.

A span is (name, op, parent, start, end).  Spans are kept in flat arrays in
memory and written out by save() when the run ends.  Self time is a span's
duration minus the durations of its direct children; calls of one thread
nest, so the children never overlap.  Counters that would cost a span per
event (RHS evaluations, dense-output reads, warp evaluations, quad
integrand calls) are plain sums.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

BRENTQ_MAXITER = 100  # scipy's default, which distance_F_report keeps


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn recorded as a span called name; after(result) runs on return."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counting(self, key: str, fn):
        """fn with every call added to counts[key]."""
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def profiles(self, build):
        """build()'s profiles, rebuilt by dataclasses.replace with a warp m
        that counts its point evaluations; construction is one span."""
        counts = self.counts
        i = self.open(self.name_id("profile.construct"))
        try:
            def counting_m(m):
                def m_counted(r):
                    counts["profile.m_evals"] += 1 if isinstance(r, float) else np.size(r)
                    return m(r)
                return m_counted
            return {key: dataclasses.replace(p, m=counting_m(p.m))
                    for key, p in build().items()}
        finally:
            self.close(i)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        a = self.arrays()
        name, parent = a["name"].astype(np.int64), a["parent"].astype(np.int64)
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
        out = {}
        for nid, label in enumerate(self.names):
            mine = name == nid
            out[label] = {"calls": int(np.count_nonzero(mine)),
                          "s": float(dur[mine & ~nested].sum()),
                          "self_s": float(self_t[mine].sum())}
        return out

    def children_of(self, child_name: str, parent_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        if child_name not in self._ids or parent_name not in self._ids:
            return 0
        a = self.arrays()
        kids = (a["name"] == self._ids[child_name]) & (a["parent"] >= 0)
        return int(np.count_nonzero(a["name"][a["parent"][kids]] == self._ids[parent_name]))


def install(tracer: Tracer):
    """Rebind the engine's layer boundaries to recording wrappers; returns
    the function that restores the originals."""
    from randers import conjugate, embed, geodesics, measure, odesolve, zermelo

    saved = []

    def patch(owners, attr, new):
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    counts = tracer.counts

    # odesolve: one span per integration, RHS evaluations counted through f
    integrate = odesolve.integrate
    ode_id = tracer.name_id("odesolve.integrate")

    def traced_integrate(f, *args, **kwargs):
        i = tracer.open(ode_id)
        try:
            sol = integrate(tracer.counting("odesolve.rhs_evals", f), *args, **kwargs)
        finally:
            tracer.close(i)
        counts["odesolve.steps"] += sol.nsteps
        counts["odesolve.rejected"] += sol.nrejected
        return sol

    patch([odesolve], "integrate", traced_integrate)

    dense = odesolve.ODESolution.__call__

    def counted_dense(self, s):
        counts["geodesics.dense_evals"] += 1 if isinstance(s, float) else np.size(s)
        return dense(self, s)

    patch([odesolve.ODESolution], "__call__", counted_dense)

    # scipy quad as geodesics and embed import it, integrand calls counted
    for mod, label in ((geodesics, "geodesics.quad"), (embed, "embed.quad")):
        quad = mod.quad
        quad_id = tracer.name_id(label)

        def traced_quad(func, *args, _quad=quad, _id=quad_id,
                        _key=label + ".integrand_evals", **kwargs):
            i = tracer.open(_id)
            try:
                return _quad(tracer.counting(_key, func), *args, **kwargs)
            finally:
                tracer.close(i)

        patch([mod], "quad", traced_quad)

    patch([geodesics, measure, conjugate], "integrate_h",
          tracer.wrap("geodesics.integrate_h", geodesics.integrate_h))
    patch([geodesics, measure], "cumulative_F_length",
          tracer.wrap("geodesics.f_length", geodesics.cumulative_F_length))

    # measure
    trc = measure.TwoRadiusConnectors

    def count_empty(cands):
        counts["measure.connector_empty"] += not cands

    patch([trc], "__init__", tracer.wrap("measure.connector_build", trc.__init__))
    patch([trc], "connectors",
          tracer.wrap("measure.connector_query", trc.connectors, count_empty))

    def add_iterations(rep):
        # When g(r1 + r2) is exactly 0 the report carries an unset iteration
        # count (a large negative number); count those reports apart.
        if 0 <= rep.iterations <= BRENTQ_MAXITER:
            counts["measure.root_iters"] += rep.iterations
        else:
            counts["measure.root_iters_invalid"] += 1

    patch([measure], "distance_F_report",
          tracer.wrap("measure.distance_F", measure.distance_F_report, add_iterations))
    patch([measure], "_h_distance_shooting",
          tracer.wrap("measure.shooting_fallback", measure._h_distance_shooting))

    def add_hits(hits):
        counts["measure.shoot_hits.hits"] += len(hits)

    patch([measure, conjugate], "shoot_hits",
          tracer.wrap("measure.shoot_hits", measure.shoot_hits, add_hits))
    patch([measure], "clairaut_verify",
          tracer.wrap("measure.clairaut_verify", measure.clairaut_verify))

    # conjugate
    for attr, label in (("cut_locus", "conjugate.cut_locus"),
                        ("first_conjugate", "conjugate.first_conjugate"),
                        ("jacobi_integrate", "conjugate.jacobi"),
                        ("verify_cut_point", "conjugate.verify_cut_point")):
        patch([conjugate], attr, tracer.wrap(label, getattr(conjugate, attr)))

    # zermelo.eval_F under every name it is imported as
    patch([zermelo, geodesics, measure, embed], "eval_F",
          tracer.wrap("zermelo.eval_F", zermelo.eval_F))

    # embed
    for attr in ("pullback_check", "embed_point", "height", "assert_embeddable"):
        patch([embed], attr, tracer.wrap("embed." + attr, getattr(embed, attr)))

    def restore():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return restore
