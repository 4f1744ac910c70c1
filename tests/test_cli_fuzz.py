"""Generated surface files and argument lists for the CLI: every run ends
with one of the documented exit codes (0 success, 1 usage, 2 domain or
configuration, 3 verification), and no traceback reaches stderr.

The examples come from the derandomised tier1 profile (conftest.py).  Sizes
stay small (lengths, fan counts) so that each run takes well under a
second; `verify` runs the whole acceptance suite and is left to
test_cli.py."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from randers import cli

SPECIAL = [0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]
GARBAGE = ["", "x", "1e", "--", "-", "1,5", "0x1p3"]
NUMBER = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL))
NUMERIC = st.one_of(NUMBER, st.floats(0.0, 4.0)).map(repr)
# mostly numbers, which get past the parser; now and then a token that does not
TOKEN = st.one_of(NUMERIC, NUMERIC, NUMERIC, st.sampled_from(GARBAGE))
# radii the working surfaces hold, more often than not
INSIDE = st.floats(0.2, 2.5).map(repr)
RADIUS = st.one_of(INSIDE, INSIDE, TOKEN)
TOL = st.sampled_from([1e-10, 1e-6, 1e-3, 1.0, 0.0, -1e-9, math.nan, math.inf]).map(repr)

EXPRESSIONS = [
    "r", "1", "0", "sin(r)", "cos(r)", "-sin(r)", "r / sqrt(r^2 + 1)", "(r^2 + 1)^-1.5",
    "-3 * r * (r^2 + 1)^-2.5", "r - r^5/20", "1 - r^4/4", "-r^3", "1/r", "r^0.5",
    "sqrt(r - 1)", "2^2000", "r^-1", "0/0", "mu * r", "(r", "r +", "r ** 2", "exp(r)",
    "", "  ", "r r", "1e999 * r", "sin(r", "cos()",
]
SURFACE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("paraboloid")},
                          optional={"mu": NUMBER, "r_max": st.floats(0.5, 30.0) | NUMBER}),
    st.fixed_dictionaries({"kind": st.just("custom"),
                           "m": st.sampled_from(EXPRESSIONS),
                           "m1": st.sampled_from(EXPRESSIONS),
                           "m2": st.sampled_from(EXPRESSIONS)},
                          optional={"mu": NUMBER | st.just("0.5"),
                                    "r_max": st.floats(0.5, 3.0) | NUMBER}),
    st.fixed_dictionaries({"kind": st.sampled_from(["sphere", "", 3]),
                           "mu": st.none() | st.lists(st.integers(), max_size=2)}),
)
# working surfaces, drawn on their own as well so that most runs get past
# loading
GOOD_SURFACE = st.sampled_from([
    {"kind": "paraboloid", "mu": 1.0},
    {"kind": "paraboloid", "mu": 0.3, "r_max": 8.0},
    {"kind": "custom", "m": "r", "m1": "1", "m2": "0", "mu": 0.04, "r_max": 20.0},
    {"kind": "custom", "m": "sin(r)", "m1": "cos(r)", "m2": "-sin(r)", "mu": 0.2,
     "r_max": 2.8},
    {"kind": "custom", "m": "r - r^5/20", "m1": "1 - r^4/4", "m2": "-r^3", "mu": 0.5,
     "r_max": 1.8},
])
FILE_TEXT = st.one_of(
    st.one_of(SURFACE, GOOD_SURFACE).map(json.dumps),
    st.sampled_from(["", "{", "[1, 2]", "3", "null", '{"kind": "paraboloid", "mu": }',
                     "ÿþ"]),
)


def _values(flag, *values):
    return st.tuples(st.just(flag), *values).map(list)


MU = _values("--mu", TOKEN)
# (options every run passes, options a run may pass) per command, each drawn
# from the flags the command accepts; _run adds --surface and --out
OPTIONS = {
    "info": ([], [MU]),
    "geodesic": ([], [MU, _values("--tol-ode", TOL),
                      _values("--seed", st.integers(-3, 3).map(str)),
                      _values("--format", st.sampled_from(["csv", "json", "obj", "png"])),
                      _values("--r0", RADIUS), _values("--theta0", TOKEN),
                      _values("--heading", TOKEN),
                      _values("--length", st.floats(-1.0, 6.0).map(repr) | TOKEN),
                      _values("--fan", st.integers(-1, 2).map(str)), st.just(["--embed"])]),
    "distance": ([_values("--from", RADIUS, TOKEN), _values("--to", RADIUS, TOKEN)],
                 [MU, _values("--tol-root", TOL)]),
    "cutlocus": ([_values("--q", RADIUS, TOKEN)],
                 [MU, _values("--s-max", st.floats(-1.0, 6.0).map(repr) | TOKEN),
                  st.just(["--skip-verify"])]),
}
# the commands that write files, and so take --out
WRITERS = ("geodesic", "distance", "cutlocus")


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    required, optional = OPTIONS[command]
    options = required + draw(st.lists(st.sampled_from(optional), max_size=4))
    often = st.sampled_from([True] * 9 + [False])
    args = [command] if draw(often) else [draw(st.sampled_from(GARBAGE))]
    for option in draw(st.permutations(options)):
        if draw(often):  # now and then a required option is left out
            args += draw(option)
    return args


def _run(args, surface_text):
    with tempfile.TemporaryDirectory() as tmp:
        if surface_text is not None:
            path = Path(tmp) / "surface.json"
            # latin-1 makes the one non-ASCII text bytes that are not UTF-8
            path.write_text(surface_text, encoding="latin-1")
            args = args + ["--surface", str(path)]
        if args[0] in WRITERS:
            args = args + ["--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(args=argv(), surface=st.one_of(st.none(), GOOD_SURFACE.map(json.dumps), FILE_TEXT))
def test_cli_ends_with_a_documented_exit_code(args, surface):
    code, err = _run(args, surface)
    assert code in (0, 1, 2, 3), (args, surface, code, err)
    assert "Traceback" not in err, (args, surface, err)


@settings(max_examples=150, deadline=None)
@given(surface=FILE_TEXT)
def test_loader_reports_bad_surfaces_as_configuration_errors(surface):
    code, err = _run(["info"], surface)
    assert code in (0, 2), (surface, code, err)
    assert "Traceback" not in err, (surface, err)
