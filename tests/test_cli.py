"""Command-line interface: output shapes, exit codes, file handling,
and byte-stability, plus the library's InputError contract that the single
exit-2 clause of run() relies on.  Tests drive run() in-process; two
subprocess tests cover the module entry points."""

import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
import toricmu as tm
from toricmu import maximize_over_vectors
from toricmu.cli import blowup_polytope, run
from toricmu.paconvex import as_pa

E = math.e
TWO_PI = 2.0 * math.pi


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_dict(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["quantity", "value"]
    return {name: value for name, value in rows[1:]}


def test_integrate_square_csv(capsys):
    code, out = invoke(capsys, "integrate", "--polytope", "square")
    assert code == 0
    values = report_dict(out)
    assert float(values["interior_triangulation"]) == pytest.approx(1.0)
    assert float(values["boundary_triangulation"]) == pytest.approx(4.0)
    assert float(values["rel_gap"]) <= 1e-12


def test_integrate_json_shape(capsys):
    code, out = invoke(
        capsys, "integrate", "--polytope", "square", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == ["quantity", "value"]
    assert data["meta"]["method"] == "auto"
    assert all(isinstance(v, str) for row in data["rows"] for v in row)


def test_integrate_q_file_closed_form(capsys, tmp_path):
    qfile = tmp_path / "diag.json"
    qfile.write_text(json.dumps({"pieces": [{"eta": [1, 1], "lambda": 0}]}))
    x = 0.7
    code, out = invoke(
        capsys,
        "integrate",
        "--polytope",
        "blowup-delta:1",
        "--q",
        str(qfile),
        "--rho",
        str(x),
    )
    assert code == 0
    values = report_dict(out)
    interior = (math.exp(-2 * x) - 2 + (1 + x) * math.exp(x)) / (x * x)
    boundary = -(2 * math.exp(-2 * x) - (2 + x) * math.exp(x)) / x
    assert float(values["interior_triangulation"]) == pytest.approx(
        interior, rel=1e-10
    )
    assert float(values["interior_localization"]) == pytest.approx(
        interior, rel=1e-10
    )
    assert float(values["boundary_triangulation"]) == pytest.approx(
        boundary, rel=1e-10
    )


def test_entropy_curve_csv(capsys):
    code, out = invoke(
        capsys, "entropy", "--polytope", "cp1", "--grid=-1:1:5"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "parameter",
        "numerator",
        "denominator",
        "mu",
        "sigma",
        "mu_lambda",
        "scaled",
    ]
    assert len(rows) == 6
    mid = dict(zip(rows[0], rows[3]))
    assert float(mid["parameter"]) == pytest.approx(0.0)
    assert float(mid["mu"]) == pytest.approx(-4 * math.pi, rel=1e-12)
    for row in rows[1:]:
        rec = dict(zip(rows[0], row))
        assert float(rec["scaled"]) == pytest.approx(
            -float(rec["mu"]) / TWO_PI, rel=1e-12
        )
        assert float(rec["mu_lambda"]) == pytest.approx(float(rec["mu"]), rel=1e-12)


def test_futaki_donaldson_vanishing(capsys, tmp_path):
    qfile = tmp_path / "eta.json"
    qfile.write_text(json.dumps({"pieces": [{"eta": [-1, 0], "lambda": 0}]}))
    code, out = invoke(
        capsys,
        "futaki",
        "--polytope",
        "donaldson",
        "--q",
        str(qfile),
        "--xi",
        "0,0",
    )
    assert code == 0
    values = report_dict(out)
    assert abs(float(values["futaki"])) <= 1e-8


def test_futaki_requires_q(capsys):
    code, _ = invoke(capsys, "futaki", "--polytope", "square", "--xi", "0,0")
    assert code == 2


def test_optimize_matches_library(capsys):
    code, out = invoke(capsys, "optimize", "--polytope", "blowup-delta:1")
    assert code == 0
    values = report_dict(out)
    res = maximize_over_vectors(support.blowup_polytope())
    assert float(values["value"]) == pytest.approx(res.value, rel=1e-9)
    xi = [float(c) for c in values["xi"].split(",")]
    assert xi[0] == pytest.approx(res.xi[0], abs=1e-6)
    assert xi[1] == pytest.approx(res.xi[1], abs=1e-6)
    assert values["status"] == "converged"


def test_calabi_square_qn(capsys):
    code, out = invoke(
        capsys, "calabi", "--polytope", "square", "--q", "square-qn:5"
    )
    assert code == 0
    values = report_dict(out)
    assert float(values["m_na"]) == pytest.approx(13.0 / 15.0, rel=1e-12)
    variance = 1.0 / 12.0 - 1.0 / 900.0
    assert float(values["variance"]) == pytest.approx(variance, rel=1e-12)
    assert float(values["c_na"]) == pytest.approx(
        -TWO_PI * 13.0 / 15.0 - variance / 2.0, rel=1e-12
    )


def test_dh_exact_rationals(capsys):
    code, out = invoke(
        capsys,
        "dh",
        "--polytope",
        "square",
        "--q",
        "const:1",
        "--grid=-2:0:3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["parameter", "cdf"]
    assert [r[1] for r in rows[1:]] == ["1", "1", "0"]


def test_dh_default_grid(capsys):
    code, out = invoke(capsys, "dh", "--polytope", "square", "--q", "zero")
    assert code == 0
    assert out.splitlines()[0] == "parameter,cdf"
    assert len(out.splitlines()) > 2


def test_metric_exp_and_p(capsys):
    code, out = invoke(
        capsys, "metric", "--polytope", "square", "--q", "const:1", "--p", "exp"
    )
    assert code == 0
    assert float(report_dict(out)["d_exp"]) == pytest.approx(
        1.0 / math.log(2.0), rel=1e-9
    )
    code, out = invoke(
        capsys, "metric", "--polytope", "square", "--q", "const:1", "--p", "2"
    )
    assert code == 0
    assert float(report_dict(out)["d_2"]) == pytest.approx(1.0, rel=1e-12)


def test_metric_row_is_labelled_by_the_given_p(capsys):
    """--p 2.000001 is a real p: its row is not d_2, the label of the exact
    integer route.  On square-qn:1e200 its value is (N^(p-2) / ((p+1)
    (p+2)))^(1/p), 2.3e-4 above d_2 = 12^(-1/2); it read 0.0 while the
    corner simplices' volumes, near 1e-400, were floats."""
    code, out = invoke(
        capsys, "metric", "--polytope", "square", "--q", "square-qn:1e200", "--p", "2.000001"
    )
    assert code == 0
    rows = report_dict(out)
    assert list(rows) == ["d_2.000001"]
    p = 2.000001
    expected = math.exp(((p - 2) * 200 * math.log(10) - math.log((p + 1) * (p + 2))) / p)
    assert float(rows["d_2.000001"]) == pytest.approx(expected, rel=1e-12)


def test_filtration_corner_rows(capsys):
    code, out = invoke(capsys, "filtration", "--case", "corner", "--m", "1,2,4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "atoms", "total_mass", "exp_integral"]
    by_m = {r[0]: r for r in rows[1:]}
    assert by_m["1"][1] == "-1:1/2;0:1/2"
    assert by_m["2"][1] == "-1:1/3;0:2/3"
    assert by_m["4"][1] == "-1:1/5;0:4/5"
    assert by_m["2"][2] == "1"
    assert float(by_m["2"][3]) == pytest.approx((E + 2) / 3, rel=1e-12)


def test_filtration_estimate_meta(capsys):
    code, out = invoke(
        capsys,
        "filtration",
        "--case",
        "corner",
        "--m",
        "10,20,50,100,200",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    est = float(data["meta"]["char_mu_estimate"])
    assert est == pytest.approx(-4 * math.pi * (E - 1), rel=1e-4)


# toricmu filtration --case corner-flat:5 --format json, as the weights
# gave it in Fraction arithmetic
_CORNER_FLAT_5 = {
    "columns": ["m", "atoms", "total_mass", "exp_integral"],
    "meta": {
        "char_mu_estimate": "-7.605977067255263",
        "char_mu_exact": "-20.42803629951766",
        "name": "corner-flat:5",
        "normalization": "dimension",
    },
    "rows": [
        ["1", "-1:1/2;0:1/2", "1", "1.8591409142295225"],
        ["2", "-1:1/3;0:2/3", "1", "1.5727606094863482"],
        ["4", "-1:1/5;0:4/5", "1", "1.343656365691809"],
        ["8", "-1:1/9;-3/8:1/9;0:7/9", "1", "1.2414748047863606"],
        ["16", "-1:1/17;-11/16:1/17;-3/8:1/17;-1/16:1/17;0:13/17", "1", "1.1897944218574938"],
        [
            "32",
            "-1:1/33;-27/32:1/33;-11/16:1/33;-17/32:1/33;-3/8:1/33;-7/32:1/33;"
            "-1/16:1/33;0:26/33",
            "1",
            "1.1665803709536064",
        ],
        [
            "64",
            "-1:1/65;-59/64:1/65;-27/32:1/65;-49/64:1/65;-11/16:1/65;-39/64:1/65;"
            "-17/32:1/65;-29/64:1/65;-3/8:1/65;-19/64:1/65;-7/32:1/65;-9/64:1/65;"
            "-1/16:1/65;0:4/5",
            "1",
            "1.1549328034395148",
        ],
    ],
}


def test_filtration_corner_flat_output_pinned(capsys):
    code, out = invoke(capsys, "filtration", "--case", "corner-flat:5", "--format", "json")
    assert code == 0
    assert json.loads(out) == _CORNER_FLAT_5


def test_filtration_flat_exact_meta(capsys):
    code, out = invoke(
        capsys,
        "filtration",
        "--case",
        "corner-flat:2",
        "--m",
        "4,8,16",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    exact = float(data["meta"]["char_mu_exact"])
    assert exact == pytest.approx(-2 * math.pi * (1 + E) * 2 / E, rel=1e-12)


@pytest.mark.parametrize(
    "case", ["blowup-delta:1", "donaldson", "square-qn:5", "corner", "cp1"]
)
def test_reproduce_cases_pass(capsys, case):
    code, out = invoke(capsys, "reproduce", case)
    assert code == 0
    assert out.strip()


def test_reproduce_nonunit_delta_routes(capsys):
    code, out = invoke(capsys, "reproduce", "blowup-delta:1/2")
    assert code == 0


def test_exit_code_2_on_bad_input(capsys):
    assert invoke(capsys, "integrate", "--polytope", "dodecahedron")[0] == 2
    assert invoke(capsys, "entropy", "--polytope", "square", "--grid", "oops")[0] == 2
    assert invoke(capsys, "reproduce", "unknown-case")[0] == 2
    assert (
        invoke(capsys, "calabi", "--polytope", "cp1", "--q", "square-qn:3")[0] == 2
    )
    assert invoke(capsys, "metric", "--polytope", "square", "--p", "0.5")[0] == 2


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1e400"])
def test_metric_rejects_non_finite_p(capsys, p):
    code = run(["metric", "--polytope", "square", "--q", "const:1", "--p=" + p])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_metric_non_integer_p_in_dimension_three(capsys, tmp_path):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"vertices": support.UNIT_CUBE}))
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"pieces": [{"eta": [1, 0, 0], "lambda": 0}]}))
    code, out = invoke(
        capsys, "metric", "--polytope", str(cube), "--q", str(q), "--p", "1.5"
    )
    assert code == 0
    # (integral of x^1.5 over the unit cube)^(1/1.5) = (1/2.5)^(1/1.5)
    d = float(report_dict(out)["d_1.5"])
    assert d == pytest.approx(0.4 ** (1 / 1.5), rel=1e-12)


@pytest.mark.parametrize("lam", ["0.5", "1e-300", "inf", "nan", "-inf"])
def test_optimize_rejects_positive_or_non_finite_lambda(capsys, lam):
    code = run(["optimize", "--polytope", "square", "--lambda=" + lam])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        # input the command cannot use: exit 2
        ("filtration --case corner --m 0,1,2", 2),
        ("filtration --case corner --m 1,2,-3", 2),
        ("filtration --case corner-flat:0", 2),
        ("entropy --polytope square --xi 1,2,3", 2),
        ("futaki --polytope square --q zero --xi 1,2,3", 2),
        ("entropy --polytope square --lambda nan", 2),
        ("entropy --polytope square --lambda=-inf", 2),
        ("futaki --polytope square --q zero --lambda inf", 2),
        ("integrate --polytope square --rho nan", 2),
        ("integrate --polytope square --rho inf", 2),
        ("dh --polytope square --q square-qn:2 --grid nan:1:3", 2),
        ("dh --polytope square --q square-qn:2 --grid inf:1:3", 2),
        ("entropy --polytope square --q const:1 --grid nan:1:3", 2),
        # exponentials beyond the float range either way: exit 3
        ("integrate --polytope cp1 --q corner-flat:2 --rho 800", 3),
        ("integrate --polytope square --q square-qn:2 --rho -800", 3),
        ("futaki --polytope cp1 --q corner-flat:2 --xi -800", 3),
        ("entropy --polytope cp1 --q corner-flat:2 --grid 0:900:3", 3),
        ("entropy --polytope blowup-delta:1 --q const:0 --xi 800,800", 3),
        ("entropy --polytope square --q const:-1000 --grid 0:5:3", 3),
    ],
)
def test_unusable_input_and_non_finite_results_exit_cleanly(capsys, argv, code):
    assert run(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "error: " if code == 2 else "validation failure: "
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err


# Tokens for every numeric argument: each kind of unusable value, and
# exact values near and beyond the float range.
TOKENS = ["0", "-1", "2.5", "1/3", "nan", "inf", "1e200", "1e400", "x"]

INPUT_FILES = {
    "tetrahedron": {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "scalar": {"vertices": 5},
    "list": [1, 2],
    "dict": {"vertices": {"a": 1}},
    "huge": {"vertices": [[0, 0], ["1e400", 0], [0, 1]]},
    "plane": {"pieces": [{"eta": [1, 0], "lambda": "1/3"}]},
    "steep": {"pieces": [{"eta": ["1e400", 0], "lambda": 0}]},
    # a triangle of volume 10^-800 / 2, below the float range
    "tiny": {"vertices": [[0, 0], ["1/1" + "0" * 400, 0], [0, "1/1" + "0" * 400]]},
    # on blowup-delta:1/3 its variance is below the float range, and M < 0
    "flat": {"pieces": [{"eta": ["1e-170", 0], "lambda": 0}]},
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    paths = {}
    for name, data in INPUT_FILES.items():
        paths[name] = str(folder / (name + ".json"))
        Path(paths[name]).write_text(json.dumps(data))
    return paths


@st.composite
def command_lines(draw, files):
    """argv over every subcommand, built from TOKENS and the input files."""
    # half of each choice is one that some command can use
    token = st.sampled_from(TOKENS[:4]) | st.sampled_from(TOKENS)

    def named(*names):
        return [name + ":" + t for name in names for t in TOKENS]

    polytope = st.sampled_from(
        ["cp1", "square", "donaldson", "blowup-delta:1/3", files["tetrahedron"]]
    ) | st.sampled_from(
        [files[k] for k in ("scalar", "list", "dict", "huge", "tiny")]
        + ["blowup-delta:" + t for t in ("0", "2.5", "1e400", "x")]
    )
    potential = st.sampled_from(["zero", files["plane"]]) | st.sampled_from(
        [files["steep"]] + named("const", "square-qn", "corner-flat")
    )
    vector = st.lists(token, min_size=1, max_size=3).map(",".join)
    grid = st.tuples(token, token, st.sampled_from(["0", "1", "2", "3", "-1", "x"]))
    degrees = st.lists(st.sampled_from(["1", "2", "3", "4"]), min_size=1, max_size=4) | (
        st.lists(st.sampled_from(["0", "1", "2", "-1", "2.5", "x"]), min_size=1, max_size=4)
    )
    # --p skips 1e200: the exact integer route raises vertex values to powers
    # near 10^200, Fractions with about 10^200 digits
    powers = st.sampled_from(["exp", "1", "2"] + [t for t in TOKENS if t != "1e200"])
    options = {
        "integrate": {"--q": potential, "--rho": token,
                      "--method": st.sampled_from(["auto", "triangulation", "localization"])},
        "entropy": {"--q": potential, "--xi": vector, "--lambda": token},
        "futaki": {"--q": potential, "--xi": vector, "--lambda": token},
        "optimize": {"--lambda": token},
        "calabi": {"--q": potential},
        "dh": {"--q": potential, "--grid": grid.map(":".join)},
        "metric": {"--q": potential, "--q2": potential, "--p": powers},
        "filtration": {"--q": potential},
    }
    command = draw(st.sampled_from(sorted(options) + ["reproduce"]))
    if command == "reproduce":
        # the valid cases run in test_reproduce_cases_pass
        return ["reproduce", draw(st.sampled_from(named("square-qn", "blowup-delta") + ["x"]))]
    argv = [command]
    if command == "filtration" and draw(st.booleans()):
        argv.append("--case=" + draw(st.sampled_from(["corner"] + named("corner-flat"))))
    elif draw(st.sampled_from([True] * 9 + [False])):
        argv.append("--polytope=" + draw(polytope))
    for flag, values in options[command].items():
        if draw(st.sampled_from([True] * 3 + [False])):
            argv.append(flag + "=" + draw(values))
    # counts of at most 3 keep every draw fast
    if command == "entropy":
        argv.append("--grid=" + ":".join(draw(grid)))
    if command == "filtration":
        argv.append("--m=" + ",".join(draw(degrees)))
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_exits_0_2_or_3_without_a_traceback(input_files, data):
    argv = data.draw(command_lines(input_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out)
    elif code == 2:
        assert "error: " in err
    else:
        assert err.startswith("validation failure: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        ("integrate --polytope square --q const:1e400", 2),
        ("entropy --polytope cp1 --xi 1e400 --grid 0:1:3", 2),
        ("dh --polytope square --q const:1e400", 2),
        ("calabi --polytope {huge} --q zero", 2),
        ("filtration --case corner --m 3,2,2", 2),
        ("integrate --polytope {scalar}", 2),
        ("integrate --polytope {list}", 2),
        ("integrate --polytope square --q square-qn:2 --rho 1e200", 3),
        ("metric --polytope square --q const:1e200 --p 2", 0),
        ("metric --polytope square --q square-qn:2 --p 1000.5", 0),
        # a volume or a variance below the float range, which a float divides by
        ("calabi --polytope {tiny} --q {plane}", 2),
        ("metric --polytope {tiny} --q {plane}", 2),
        ("filtration --polytope {tiny} --q {plane} --m 1,2,3", 2),
        ("calabi --polytope blowup-delta:1/3 --q {flat}", 2),
    ],
)
def test_former_tracebacks_exit_cleanly(capsys, input_files, argv, code):
    assert run(argv.format(**input_files).split()) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 0:
        assert math.isfinite(float(report_dict(captured.out)["d_" + argv.split()[-1]]))
    else:
        assert captured.err.startswith("error: " if code == 2 else "validation failure: ")


def test_near_singular_localization_exits_cleanly(capsys, tmp_path):
    # <mu, (1, 10^-9)> on the square: an edge pairs to 10^-9, which exited 3
    # while such directions were rejected
    q = tmp_path / "near.json"
    q.write_text(json.dumps({"pieces": [{"eta": [1, "1/1000000000"], "lambda": 0}]}))
    code, out = invoke(
        capsys, "integrate", "--polytope", "square", "--q", str(q), "--method", "localization"
    )
    assert code == 0
    got = float(report_dict(out)["interior_localization"])
    assert got == pytest.approx((math.e - 1) * math.expm1(1e-9) * 1e9, rel=1e-14)


_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
_BIG_SQUARE = [(0, 0), (2, 0), (0, 2), (2, 2)]
_TRIANGLE = [(0, 0), (1, 0), (0, 1)]
# a triangle of volume 10^-800 / 2, and a unit triangle at x = 10^400
_TINY = [(0, 0), (Fraction(1, 10**400), 0), (0, Fraction(1, 10**400))]
_FAR = [(10**400, 0), (10**400 + 1, 0), (10**400, 1)]


def _on_two_squares():
    return (
        support.pa_from(support.unit_square(), ((1, 0), 0)),
        support.pa_from(tm.build_polytope(_BIG_SQUARE), ((0, 1), 0)),
    )


def _max_xy_on(vertices):
    """max(x, y) bound to the polygon with the given vertices."""
    return support.pa_from(tm.build_polytope(vertices), ((1, 0), 0), ((0, 1), 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: tm.entropy_curve(support.unit_square(), None, grid=(0, 1, 0)),
        lambda: tm.entropy_curve(support.unit_square(), None, grid=(0, math.inf, 3)),
        lambda: tm.entropy_curve(support.unit_square(), None, lam=math.nan),
        lambda: tm.entropy_curve(support.unit_square(), None, xi=(1, 2, 3)),
        lambda: tm.futaki(support.unit_square(), (0, 0), None, lam=math.nan),
        lambda: tm.mu_lambda(support.unit_square(), None, math.nan),
        lambda: tm.polytope_exp_integral(support.unit_square(), None, rho=math.inf),
        lambda: tm.polytope_exp_integral(support.unit_square(), None, method="x"),
        lambda: tm.boundary_exp_integral(support.unit_square(), None, rho=math.nan),
        lambda: tm.cross_validate(support.unit_square(), None, rho=math.inf),
        lambda: tm.maximize_over_vectors(support.unit_square(), lam=0.5),
        lambda: tm.metric_dp(*[support.pa_from(support.unit_square(), ((0, 0), 0))] * 2, 0.5),
        # x on the unit square and y on [0, 2]^2: the integer and the real p route
        lambda: tm.metric_dp(*_on_two_squares(), 2),
        lambda: tm.metric_dp(*_on_two_squares(), 1.5),
        lambda: tm.sections(support.unit_square(), 0),
        lambda: tm.char_mu_estimate(tm.corner_flat_filtration(2), [3, 2, 2]),
        lambda: tm.make_pa([], support.unit_square()),
        lambda: tm.build_polytope([(0, 0), (1, 1), (2, 2)]),
        lambda: tm.legendre_dual([((1, 2, 3), 0)], support.unit_square()),
        lambda: tm.LatticePolytope.from_json('{"vertices": 5}'),
        lambda: tm.LatticePolytope.from_json("[1, 2]"),
        lambda: tm.LatticePolytope.from_json('{"vertices": {"a": 1}}'),
        lambda: tm.polytope_exp_integral(
            support.unit_square(), tm.AffineForm((0, 0), Fraction(10) ** 400)
        ),
        lambda: tm.polytope_exp_integral(support.unit_segment(), None, rho=None),
        lambda: tm.polytope_exp_integral(support.unit_segment(), None, rho="x"),
        lambda: tm.MonomialFiltration.from_pa(tm.AffineForm((1,), 0)),
        # a potential on the unit square's neighbours, used on the unit square
        lambda: tm.mu_lambda(support.unit_square(), _max_xy_on(_BIG_SQUARE), 0),
        lambda: tm.calabi(support.unit_square(), _max_xy_on(_BIG_SQUARE)),
        lambda: tm.cross_validate(support.unit_square(), _max_xy_on(_BIG_SQUARE)),
        lambda: tm.boundary_exp_integral(support.unit_square(), _max_xy_on(_TRIANGLE)),
        lambda: tm.entropy_curve(support.unit_square(), _max_xy_on(_TRIANGLE)),
        lambda: tm.mu_lambda(support.unit_square(), _max_xy_on(_TRIANGLE), 0),
        # vectors, forms and directions of the wrong length
        lambda: tm.polytope_exp_integral(support.unit_square(), tm.AffineForm((1, 1, 5), 0)),
        lambda: tm.make_pa([tm.AffineForm((1, 2, 3), 0)], support.unit_square()),
        lambda: tm.brion_localize_limit(support.unit_square(), (1, 2, 5)),
        lambda: support.unit_square().contains((Fraction(1, 2),)),
        lambda: support.unit_square().clip((1, 0, 7), Fraction(1, 2)),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0, 0)),
        lambda: maximize_over_vectors(support.unit_square(), seeds=[(1, 0, 0)]),
        lambda: maximize_over_vectors(support.unit_square(), box=((-1, 1),)),
        lambda: tm.maximize_along_ray(support.unit_square(), (0, 0)),
        # arithmetic on forms of different lengths, and a point of the wrong length
        lambda: tm.AffineForm((1, 2)) + tm.AffineForm((1, 2, 3)),
        lambda: tm.AffineForm((1, 2)) - tm.AffineForm((1,)),
        lambda: tm.AffineForm((1, 1))((1, 2, 3)),
        lambda: support.pa_from(support.unit_square(), ((1, 0), 0)) + tm.AffineForm((1, 1, 5), 0),
        # an exponent beyond the float range; a volume that underflows where
        # the integral would not
        lambda: tm.simplex_exp_integral(
            tm.Simplex([(0, 0), (1, 0), (0, 1)]), tm.AffineForm((0, 0), Fraction(10) ** 400)
        ),
        lambda: tm.simplex_exp_integral(
            tm.Simplex([(0, 0), (Fraction(1, 10**200), 0), (0, Fraction(1, 10**200))]),
            tm.AffineForm((0, 0), 1000),
        ),
        # arithmetic on rational vectors of different lengths
        lambda: tm.RationalVector((1, 2)) + (1, 2, 3),
        lambda: tm.RationalVector((1, 2)) - (5,),
        lambda: tm.RationalVector((1, 2)).dot((1, 1, 1)),
        # explicit grid points that are not finite numbers
        lambda: tm.entropy_curve(support.unit_square(), None, grid=[math.nan, math.inf]),
        lambda: tm.entropy_curve(support.unit_square(), None, grid=["x"]),
        # values that are not rationals, and strings or scalars read as vectors
        lambda: tm.dh_cdf(_max_xy_on(_SQUARE), "x"),
        lambda: tm.dh_cdf(_max_xy_on(_SQUARE), math.nan),
        lambda: tm.dh_cdf(_max_xy_on(_SQUARE), math.inf),
        lambda: tm.dh_cdf(_max_xy_on(_SQUARE), [1]),
        lambda: tm.dh_summary(_max_xy_on(_SQUARE)).cdf(math.nan),
        lambda: tm.rooftop(_max_xy_on(_SQUARE), math.nan),
        lambda: math.nan * _max_xy_on(_SQUARE),
        lambda: "x" * tm.AffineForm((1, 0)),
        lambda: tm.AffineForm((1, 0), math.nan),
        lambda: tm.AffineForm(("a", 0)),
        lambda: tm.AffineForm(5),
        lambda: tm.AffineForm("12"),
        lambda: tm.make_pa([((1, 0), math.inf)], support.unit_square()),
        lambda: tm.make_pa([(1, 2, 3)], support.unit_square()),
        lambda: tm.make_pa([5], support.unit_square()),
        lambda: tm.build_polytope([(math.nan, 0), (1, 0), (0, 1)]),
        lambda: tm.build_polytope(["12", "34", "50"]),
        lambda: tm.RationalVector((1, "1/0")),
        lambda: tm.spectral_measure(tm.corner_filtration(), 3).cdf("x"),
        lambda: tm.legendre_dual(
            [((1, 0), math.nan), ((0, 1), 0), ((0, 0), 0)], support.unit_square()
        ),
        lambda: support.unit_square().clip((1, 0), math.nan),
        lambda: support.unit_square().contains((math.nan, 0)),
        lambda: tm.futaki(support.unit_square(), ("x", 0), tm.AffineForm((1, 0))),
        lambda: tm.entropy_curve(support.unit_square(), None, xi=5),
        # optimizer and estimator parameters: xtol=0 used to loop forever
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), xtol=0),
        lambda: tm.normalized_df(support.unit_square(), _max_xy_on(_SQUARE), xtol=math.nan),
        lambda: maximize_over_vectors(support.unit_square(), gtol=math.nan),
        lambda: maximize_over_vectors(support.unit_square(), max_iter=1.5),
        lambda: maximize_over_vectors(support.unit_square(), box=((math.nan, 1), (0, 1))),
        lambda: maximize_over_vectors(support.unit_square(), box=((1, -1), (1, -1))),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(math.nan, 1)),
        lambda: tm.char_mu_estimate(tm.corner_filtration(), [2, 3, 4], nu_infinity=math.nan),
        # grids and point lists that are not sequences
        lambda: tm.entropy_curve(support.unit_square(), _max_xy_on(_SQUARE), grid=5),
        lambda: tm.entropy_curve(support.unit_square(), _max_xy_on(_SQUARE), grid="12"),
        lambda: tm.build_polytope(5),
        # facet indices outside [0, number of facets)
        lambda: support.unit_square().facet_measure(99),
        lambda: _max_xy_on(_SQUARE).restrict_to_facet(99),
        lambda: support.unit_square().facet_measure(1.5),
        lambda: _max_xy_on(_SQUARE).restrict_to_facet(-1),
        # a ray direction that is a string or not finite, and a non-finite scale
        lambda: tm.maximize_along_ray(support.unit_square(), "12"),
        lambda: tm.maximize_along_ray(support.unit_square(), (math.nan, 0)),
        lambda: tm.brion_localize_limit(support.unit_square(), (1, 2), scale=math.nan),
        # exact values beyond the float range where they become floats
        lambda: tm.brion_localize_limit(tm.build_polytope(_FAR), (1, 1)),
        lambda: tm.brion_localize_limit(tm.build_polytope(_FAR), (1, 0)),
        lambda: tm.extremal_limit_check(
            support.unit_square(), _max_xy_on(_SQUARE), rho_small=10**400
        ),
        lambda: tm.extremal_limit_check(support.unit_square(), _max_xy_on(_SQUARE), rho_small="x"),
        # nonzero volumes and variances whose floats are 0.0, divided by or logged
        lambda: tm.extremal_limit_check(tm.build_polytope(_TINY), tm.AffineForm((1, 0))),
        lambda: tm.calabi(tm.build_polytope(_TINY), tm.AffineForm((1, 0))),
        lambda: tm.normalized_df(tm.build_polytope(_TINY), tm.AffineForm((1, 0))),
        lambda: tm.calabi(
            blowup_polytope(Fraction(1, 3)), tm.AffineForm((Fraction(1, 10**170), 0))
        ),
        lambda: tm.metric_dexp(_max_xy_on(_TINY), as_pa(None, tm.build_polytope(_TINY))),
        lambda: tm.MonomialFiltration.from_pa(_max_xy_on(_TINY)).limit_exp_integral(),
        lambda: tm.char_mu_estimate(tm.MonomialFiltration.from_pa(_max_xy_on(_TINY)), [1, 2, 3]),
        # optimizer seeds with entries that are not finite numbers
        lambda: maximize_over_vectors(support.unit_square(), seeds=[(math.nan, 0)]),
        lambda: maximize_over_vectors(support.unit_square(), seeds=["12"]),
        lambda: maximize_over_vectors(support.unit_square(), seeds=[5]),
        # ray brackets that are not a pair of finite numbers with low <= high
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(1,)),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=5),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(1, 2, 3)),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(1, -1)),
        # a normalization name that spectral_measure refuses
        lambda: tm.MonomialFiltration.from_pa(_max_xy_on(_SQUARE)).limit_exp_integral("foo"),
        # ray brackets that do not contain 0 inside: doubling moved a positive
        # low end away from the origin, and (0, 0) never grew
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(1, 2)),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(-3, -2)),
        lambda: tm.maximize_along_ray(support.unit_square(), (1, 0), bracket=(0, 0)),
        # no seeds, and no grid points: max() of an empty sequence raised ValueError
        lambda: maximize_over_vectors(support.unit_square(), seeds=[]),
        lambda: tm.entropy_curve(support.unit_square(), None, grid=[]),
    ],
)
def test_library_argument_errors_are_input_errors(call):
    # a call that does not return fails at the alarm instead of stalling the suite
    def out_of_time(signum, frame):
        raise TimeoutError("the call did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(10)
    try:
        with pytest.raises(tm.InputError):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_near_singular_direction_is_not_an_input_error():
    # a direction that pairs to nearly zero with an edge localizes like any other
    got = tm.brion_localize_limit(support.unit_square(), (1, Fraction(1, 10**9)))
    assert got == pytest.approx((math.e - 1) * math.expm1(1e-9) * 1e9, rel=1e-14)


def test_exit_code_2_on_bad_q_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert invoke(capsys, "integrate", "--polytope", "square", "--q", str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert (
        invoke(capsys, "integrate", "--polytope", "square", "--q", str(missing))[0]
        == 2
    )
    # a gradient of the wrong length, and no pieces at all
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"pieces": [{"eta": [1, 2, 3], "lambda": "0"}]}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"pieces": []}))
    for command, path in (("integrate", wrong), ("calabi", wrong), ("integrate", empty)):
        assert run([command, "--polytope", "square", "--q", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad potential file")
        assert "Traceback" not in captured.err


def test_numbers_in_files_mean_their_text(capsys, tmp_path):
    # 0.1 as a JSON number is 1/10, in a vertex, in eta and in lambda alike
    outputs = []
    for k, tenth in enumerate((0.1, "1/10")):
        polytope = tmp_path / ("polytope%d.json" % k)
        polytope.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [tenth, 1]]}))
        q = tmp_path / ("q%d.json" % k)
        pieces = [{"eta": [tenth, 0], "lambda": tenth}, {"eta": [0, 1], "lambda": 0}]
        q.write_text(json.dumps({"pieces": pieces}))
        code, out = invoke(
            capsys, "dh", "--polytope", str(polytope), "--q", str(q), "--format", "json"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_non_simple_polytope_localization(capsys, tmp_path):
    # The apex (1, 1, 1) of the square pyramid lies on four facets, so the
    # vertex-cone (Brion) route does not apply.  int e^x over the pyramid is
    # int_0^1 (2 - 2z) (e^(2-z) - e^z) dz = 4.
    pyr = tmp_path / "pyr.json"
    pyr.write_text(
        json.dumps({"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 1]]})
    )
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"pieces": [{"eta": ["1", "0", "0"], "lambda": "0"}]}))
    base = ["integrate", "--polytope", str(pyr), "--q", str(q), "--rho", "1"]

    assert run(base + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "simple" in data["meta"]["localization"]
    rows = dict(data["rows"])
    assert sorted(rows) == ["boundary_triangulation", "interior_triangulation"]
    assert float(rows["interior_triangulation"]) == pytest.approx(4.0, rel=1e-12)

    assert run(base + ["--method", "localization"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: localization needs simple vertices")


def test_exit_code_3_on_failed_check(capsys, monkeypatch):
    import toricmu.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "_blowup_closed_interior", lambda x: 1.0 + math.exp(x)
    )
    code, _ = invoke(capsys, "reproduce", "blowup-delta:1")
    assert code == 3


def test_out_file_and_byte_stability(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    args = (
        "entropy",
        "--polytope",
        "blowup-delta:1",
        "--grid=-1:1:9",
        "--out",
        str(target),
    )
    code, _ = invoke(capsys, *args)
    assert code == 0
    first = target.read_bytes()
    code, _ = invoke(capsys, *args)
    assert code == 0
    assert target.read_bytes() == first
    assert first.endswith(b"\n")
    assert b"\r" not in first


def test_stdout_byte_stability(capsys):
    argv = ("entropy", "--polytope", "donaldson", "--grid", "0:2:5")
    _, out1 = invoke(capsys, *argv)
    _, out2 = invoke(capsys, *argv)
    assert out1 == out2


def test_json_rationals_as_strings(capsys):
    code, out = invoke(
        capsys,
        "dh",
        "--polytope",
        "square",
        "--q",
        "const:1",
        "--grid=-2:-1:2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    flat = [v for row in data["rows"] for v in row]
    assert "1" in flat  # exact Fraction serialized without a decimal point


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "toricmu.cli", "integrate", "--polytope", "square"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,value")


def test_package_main_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "toricmu", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: toricmu")


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    """--out under a missing folder is an input error, not a traceback."""
    target = tmp_path / "missing" / "out.csv"
    code = run(["integrate", "--polytope", "square", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert "Traceback" not in captured.err
    assert not target.parent.exists()


def test_square_qn_metric_underflow_exits_2(capsys):
    """d_exp of square-qn:N is about N / (2 ln N): at N = 1e100 it is
    printed; at N = 1e200 the spike's simplices have volume about 1e-400,
    below the float range, and the run stops with an input error instead of
    printing a d_exp that leaves them out."""
    code, out = invoke(capsys, "reproduce", "square-qn:1e100")
    assert code == 0
    assert float(report_dict(out)["d_exp"]) == pytest.approx(2.1149048555e97, rel=1e-9)
    assert run(["reproduce", "square-qn:1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a simplex of volume ")
    assert "underflows to 0.0" in captured.err
