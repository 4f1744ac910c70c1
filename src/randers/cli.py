"""Command-line front end.

Subcommands: info, geodesic, distance, cutlocus, verify.  Exit codes:
0 success, 1 usage error, 2 domain or configuration error, 3 verification
failure.  Floating-point console output uses 17 significant digits so values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, conjugate, embed, measure, verify
from .errors import GeometryError, InvalidParameterError
from .geodesics import (
    GeodesicState,
    count_self_intersections,
    integrate_F,
    integrate_h,
    on_export_grid,
    path_metadata,
    path_to_csv,
    twist,
)
from .profile import (
    SurfacePoint,
    gauss_curvature,
    geodesic_parallels,
    is_von_mangoldt,
    load_surface,
    make_paraboloid,
)
from .zermelo import Tangent, eval_F

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    domain errors and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _g(x: float) -> str:
    return f"{x:.17g}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="randers",
                     description="rotational Randers metric engine")
    parser.add_argument("--version", action="version", version=__version__)
    # each subcommand takes only the flags it reads
    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("--surface", metavar="FILE",
                         help="surface definition JSON file")
    surface.add_argument("--mu", type=float, default=None,
                         help="wind strength override (default 1.0 paraboloid)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", default=".",
                     help="output directory for exported files")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[surface],
                   help="print surface diagnostics")

    g = sub.add_parser("geodesic", parents=[surface, out],
                       help="integrate and export a geodesic")
    g.add_argument("--tol-ode", type=float, default=1e-10)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    # None: cmd_geodesic applies their defaults where a run reads them
    g.add_argument("--seed", type=_seed, default=None)
    g.add_argument("--r0", type=float, default=None)
    g.add_argument("--theta0", type=float, default=None)
    g.add_argument("--heading", type=float, default=None,
                   help="launch angle from the radial direction, h-frame")
    g.add_argument("--length", type=float, default=10.0)
    g.add_argument("--fan", type=int, default=0, metavar="N",
                   help="export a meridian plus N twisted meridians at pi/4 "
                        "spacing instead of a single geodesic")
    g.add_argument("--embed", action="store_true",
                   help="also export embedded 3D polylines / mesh")

    d = sub.add_parser("distance", parents=[surface, out],
                       help="directed navigation distance between two points")
    d.add_argument("--from", dest="q1", nargs=2, type=float, required=True,
                   metavar=("R", "THETA"))
    d.add_argument("--to", dest="q2", nargs=2, type=float, required=True,
                   metavar=("R", "THETA"))
    d.add_argument("--tol-root", type=float, default=1e-9)

    c = sub.add_parser("cutlocus", parents=[surface, out],
                       help="cut locus of a point, with one interior check")
    c.add_argument("--q", nargs=2, type=float, required=True,
                   metavar=("R", "THETA"))
    c.add_argument("--s-max", type=float, default=None)
    c.add_argument("--skip-verify", action="store_true",
                   help="skip the interior-point shooting verification")

    v = sub.add_parser("verify", parents=[out], help="run the full verification suite")
    v.add_argument("--seed", type=_seed, default=0)
    return parser


def _load_profile(args):
    if args.surface:
        profile = load_surface(args.surface)
        if args.mu is not None and profile.source.get("kind") == "paraboloid":
            profile = make_paraboloid(args.mu, r_max=profile.r_max)
        return profile
    return make_paraboloid(args.mu if args.mu is not None else 1.0)


def _config_echo(args) -> dict:
    """The command's name and the settings it read."""
    echo = {"engine_version": __version__, "command": args.command}
    if "surface" in args:
        echo["surface"] = args.surface or {"kind": "paraboloid",
                                           "mu": args.mu if args.mu is not None else 1.0}
    if getattr(args, "seed", None) is not None:
        echo["seed"] = args.seed
    if "tol_ode" in args:
        echo["tolerances"] = {"tol_ode": args.tol_ode}
    return echo


def cmd_info(args) -> int:
    profile = _load_profile(args)
    print(f"kind: {profile.kind}")
    print(f"mu: {_g(profile.mu)}")
    print(f"r_max: {_g(profile.r_max)}")
    print(f"boundedness margin min(1 - mu*m): {_g(profile.boundedness_margin())}")
    grid = np.linspace(0.0, profile.r_max, 2048)
    vm = is_von_mangoldt(profile, grid)
    if vm.is_von_mangoldt:
        print("von Mangoldt (curvature non-increasing): true")
    else:
        print(f"von Mangoldt: false (curvature rises at r = "
              f"{_g(vm.violation_radius)})")
    parallels = geodesic_parallels(profile, grid)
    if parallels:
        print("geodesic parallels at r = " + ", ".join(_g(r) for r in parallels))
    else:
        print("geodesic parallels: none")
    for r in sorted({r for r in (0.0, 1.0, profile.r_max / 2.0, profile.r_max)
                     if r <= profile.r_max}):
        print(f"  m({_g(r)}) = {_g(float(profile.m(r)))}   "
              f"G({_g(r)}) = {_g(gauss_curvature(profile, r))}")
    return EXIT_OK


def _export_paths(profile, tag, h_path, f_path, outdir, fmt, echo):
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for label, path in (("h", h_path), ("F", f_path)):
        path = on_export_grid(profile, path)
        base = outdir / f"{tag}_{label}"
        if fmt == "csv":
            path_to_csv(path, base.with_suffix(".csv"))
            written.append(base.with_suffix(".csv"))
        meta = path_metadata(path)
        meta["config"] = echo
        with open(base.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(meta if fmt != "json" else
                      {**meta, "samples": [[float(s), *map(float, row)]
                                           for s, row in zip(path.s, path.states)]},
                      fh, indent=1)
        written.append(base.with_suffix(".json"))
    return written


def _export_embedded_polyline(profile, path, filename):
    """The embedded image of the path, on the export grid."""
    path = on_export_grid(profile, path)
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write("s,x,y,z\n")
        for s, row in zip(path.s, path.states):
            q = SurfacePoint(max(row[0], 0.0), row[1])
            pt = embed.embed_point(profile, q)
            fh.write(f"{s:.17g},{pt.x:.17g},{pt.y:.17g},{pt.z:.17g}\n")


def _export_pullback_report(profile, args, outdir):
    """The pullback certification at the default samples, drawn from the
    part of the default radial range where the surface embeds."""
    r_hi = min(5.0, profile.embeddable_radius)
    report = embed.pullback_report(profile, seed=args.seed,
                                   r_range=(min(0.1, r_hi), r_hi))
    name = outdir / "pullback_report.json"
    embed.write_pullback_report({**report, "config": _config_echo(args)}, name)
    print(f"pullback max residual = {_g(report['max_residual'])}")
    return name


def cmd_geodesic(args) -> int:
    # (default, read): the fan starts every geodesic at the vertex, a geodesic
    # from the vertex leaves along theta0, and only the embedding draws a seed
    single = args.fan <= 0
    flags = {"r0": (1.0, single), "theta0": (0.0, single),
             "heading": (0.0, single and args.r0 != 0.0), "seed": (0, args.embed)}
    unread = [f"--{name}" for name, (_, read) in flags.items()
              if getattr(args, name) is not None and not read]
    if unread:
        print(f"randers geodesic: error: this run does not read {', '.join(unread)} "
              "(--r0, --theta0 and --heading launch one geodesic, not a --fan; "
              "--heading off the vertex; --seed draws the --embed samples)", file=sys.stderr)
        return EXIT_USAGE
    for name, (default, read) in flags.items():
        if read and getattr(args, name) is None:
            setattr(args, name, default)
    profile = _load_profile(args)
    outdir = Path(args.out)
    echo = _config_echo(args)
    written = []
    if args.fan > 0:
        outdir.mkdir(parents=True, exist_ok=True)
        mer = integrate_h(profile, GeodesicState(0.0, 0.0, 1.0, 0.0),
                          args.length, tol=args.tol_ode)
        written += _export_paths(profile, "meridian", mer, twist(mer, 0.0),
                                 outdir, args.format, echo)
        for k in range(args.fan):
            theta0 = k * math.pi / 4.0
            base = integrate_h(profile, GeodesicState(0.0, theta0, 1.0, 0.0),
                               args.length, tol=args.tol_ode)
            f_path = twist(base, profile.mu)
            written += _export_paths(profile, f"twisted_{k}", base, f_path,
                                     outdir, args.format, echo)
            if args.embed:
                name = outdir / f"twisted_{k}_F_xyz.csv"
                _export_embedded_polyline(profile, f_path, name)
                written.append(name)
        if args.embed:
            mesh = outdir / "surface.obj"
            embed.export_mesh_obj(profile, mesh,
                                  r_max=min(profile.r_max, args.length))
            written.append(mesh)
            written.append(_export_pullback_report(profile, args, outdir))
    else:
        q = SurfacePoint(args.r0, args.theta0)
        profile.check_radius(q.r)
        if args.r0 == 0.0:
            f_path = integrate_F(profile, q, Tangent(1.0, 0.0), args.length,
                                 tol=args.tol_ode)
        else:
            if not math.isfinite(args.heading):
                raise InvalidParameterError(f"heading must be finite, got {args.heading}")
            m0 = float(profile.m(args.r0))
            u = Tangent(math.cos(args.heading), math.sin(args.heading) / m0)
            F0 = eval_F(profile, q, u)
            f_path = integrate_F(profile, q, Tangent(u.y1 / F0, u.y2 / F0),
                                 args.length, tol=args.tol_ode)
        h_path = f_path.h_preimage
        written += _export_paths(profile, "geodesic", h_path, f_path, outdir,
                                 args.format, echo)
        report = measure.clairaut_verify(profile, f_path)
        with open(outdir / "clairaut_report.json", "w", encoding="utf-8") as fh:
            json.dump({**report.to_dict(), "config": echo}, fh, indent=1)
        written.append(outdir / "clairaut_report.json")
        if args.embed:
            name = outdir / "geodesic_F_xyz.csv"
            _export_embedded_polyline(profile, f_path, name)
            written.append(name)
            written.append(_export_pullback_report(profile, args, outdir))
        print(f"nu = {_g(f_path.nu)}  kind = {f_path.kind}  "
              f"clairaut_drift = {_g(f_path.max_clairaut_drift)}")
        try:
            n_x = count_self_intersections(f_path)
            print(f"self-intersections within length {_g(args.length)}: {n_x}")
        except GeometryError:
            pass
    for w in written:
        print(f"wrote {w}")
    return EXIT_OK


def cmd_distance(args) -> int:
    profile = _load_profile(args)
    report = measure.distance_F_report(
        profile, SurfacePoint(*args.q1), SurfacePoint(*args.q2),
        tol=args.tol_root)
    doc = report.to_dict()
    doc["config"] = _config_echo(args)
    print(f"d_F = {_g(report.distance)}  (iterations: {report.iterations})")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "distance.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_cutlocus(args) -> int:
    profile = _load_profile(args)
    q = SurfacePoint(*args.q)
    arc = conjugate.cut_locus(profile, q, s_export_max=args.s_max)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    arc.to_json(outdir / "cutlocus.json")
    arc.to_csv(outdir / "cutlocus.csv")
    print(f"rho = {_g(arc.rho)}  first conjugate parameter c = {_g(arc.c)}")
    print(f"arc start (r, theta) = ({_g(arc.r[0])}, {_g(arc.theta[0])})")
    print(f"wrote {outdir / 'cutlocus.json'}")
    print(f"wrote {outdir / 'cutlocus.csv'}")
    if not args.skip_verify:
        i = int(np.argmin(np.abs(arc.s - (arc.c + 1.0))))
        i = max(i, 1)
        chk = conjugate.verify_cut_point(profile, q, arc.point_at_index(i))
        doc = chk.to_dict()
        doc["config"] = _config_echo(args)
        with open(outdir / "cutpoint_check.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print(f"interior point check: verified={chk.verified} "
              f"minimizers={chk.n_minimizers} "
              f"gap={_g(chk.equal_length_gap or float('nan'))}")
        print(f"wrote {outdir / 'cutpoint_check.json'}")
        if not chk.verified:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed)
    for res in results:
        print(res.line())
    n_fail = sum(1 for r in results if not r.passed)
    doc = {
        "config": _config_echo(args),
        "results": [{
            "name": r.name, "passed": r.passed, "value": r.value,
            "threshold": r.threshold, "details": {
                k: v for k, v in r.details.items()
                if isinstance(v, (int, float, str, bool, dict, list))
            },
        } for r in results],
    }
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "verify.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {outdir / 'verify.json'}")
    if n_fail:
        print(f"{n_fail} check(s) failed")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


_COMMANDS = {
    "info": cmd_info,
    "geodesic": cmd_geodesic,
    "distance": cmd_distance,
    "cutlocus": cmd_cutlocus,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
