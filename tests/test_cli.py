"""CLI: parsing, dispatch, structured errors, byte-stable output."""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylwalks import build_root_system, invert_drift
from weylwalks.cli import main, parse
from weylwalks.rootdata import cartan_type, dominant_representative

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_root_info():
    args = parse(["root", "info", "--type", "A2"])
    assert (args.group, args.verb) == ("root", "info")
    assert (args.cartan.family, args.cartan.rank) == ("A", 2)


def test_parse_drift_invert_mixed_coordinates():
    args = parse(["drift", "invert", "--type", "A2", "--delta", "1,0",
                  "--m", "0.2,1/10"])
    assert args.m[1] == Fraction(1, 10)


@pytest.mark.parametrize("argv,flag,value", [
    (["drift", "invert", "--type", "A2", "--delta", "1,0"], "--m", "-0.2,0.1"),
    (["drift", "invert", "--type", "A2", "--delta", "1,0"], "--m", "-1/5,1/10"),
    (["measure", "eval", "--type", "A2", "--delta", "1,0", "--mode", "free",
      "--m", "0.2,0.1"], "--lambda", "-1,1"),
    (["measure", "eval", "--type", "A2", "--delta", "1,0", "--mode", "chamber",
      "--m", "0.2,0.1"], "--lambda", "-1,0"),
    (["polytope", "faces", "--type", "A2"], "--delta", "-1,0"),
])
def test_coordinate_lists_may_start_with_a_minus_sign(capsys, argv, flag, value):
    glued = run_cli(capsys, *argv, f"{flag}={value}")
    assert run_cli(capsys, *argv, flag, value) == glued
    assert glued[1].startswith("{")


@pytest.mark.parametrize("argv,flag,abbrev,value", [
    (["measure", "eval", "--type", "A2", "--delta", "1,0", "--mode", "free",
      "--m", "0.2,0.1"], "--lambda", "--lam", "-1,1"),
    (["measure", "eval", "--type", "A2", "--delta", "1,0", "--mode", "chamber",
      "--m", "0.2,0.1"], "--lambda", "--l", "-1,0"),
    (["drift", "invert", "--type", "A2", "--m", "0.2,0.1"], "--delta", "--del", "-1,0"),
    (["polytope", "faces", "--type", "A2"], "--delta", "--d", "-1,0"),
])
def test_abbreviated_coordinate_flags_take_a_minus_sign(capsys, argv, flag, abbrev, value):
    glued = run_cli(capsys, *argv, f"{flag}={value}")
    assert run_cli(capsys, *argv, abbrev, value) == glued
    assert glued[1].startswith("{")


def test_parse_bad_type_token_names_it(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["root", "info", "--type", "Z9"])
    assert exc.value.code == 2
    assert "Z9" in capsys.readouterr().err


def test_parse_malformed_lambda(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["measure", "eval", "--type", "A1", "--delta", "1",
               "--mode", "chamber", "--m", "0", "--lambda", "2,0?"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'0?'" in err  # the offending token is named


def test_seed_required_for_sampling():
    with pytest.raises(SystemExit) as exc:
        parse(["sample", "--type", "A1", "--delta", "1", "--mode", "free",
               "--m", "0", "--steps", "10"])
    assert exc.value.code == 2


def test_format_only_where_csv_exists(capsys):
    # csv switches measure eval and sample; elsewhere --format is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["crystal", "build", "--type", "A2", "--delta", "1,0", "--format", "csv"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --format csv" in out.err
    assert "Traceback" not in out.err


def test_root_info_output(capsys):
    code, out, _ = run_cli(capsys, "root", "info", "--type", "G2")
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_order"] == 12 and doc["rho"] == ["1", "1"]


def test_crystal_build_a2(capsys):
    code, out, _ = run_cli(capsys, "crystal", "build", "--type", "A2",
                           "--delta", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 3
    assert ["1", "0"] in doc["endpoints"]


def test_graph_build(capsys):
    code, out, _ = run_cli(capsys, "graph", "build", "--type", "A1",
                           "--delta", "1", "--kind", "chamber", "--nmax", "4")
    doc = json.loads(out)
    assert code == 0
    level4 = {tuple(e["weight"]): e["count"] for e in doc["levels"][4]}
    assert level4[("0",)] == 2


def test_polytope_faces(capsys):
    code, out, _ = run_cli(capsys, "polytope", "faces", "--type", "A2",
                           "--delta", "1,0")
    doc = json.loads(out)
    assert code == 0
    assert [d["subset"] for d in doc] == [[], [1], [1, 2]]


def test_drift_invert_round(capsys):
    code, out, _ = run_cli(capsys, "drift", "invert", "--type", "A1",
                           "--delta", "1", "--m", "1/3")
    doc = json.loads(out)
    assert code == 0
    assert float(doc["t"][0]) == pytest.approx(0.5, abs=1e-10)


def test_drift_invert_outside_is_domain_error(capsys):
    code, out, _ = run_cli(capsys, "drift", "invert", "--type", "A1",
                           "--delta", "1", "--m", "2")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NotInPolytope"


def test_measure_eval_json_and_csv(capsys):
    args = ["measure", "eval", "--type", "A1", "--delta", "1", "--mode",
            "chamber", "--m", "0", "--lambda", "2", "--n", "2"]
    code, out, _ = run_cli(capsys, *args)
    doc = json.loads(out)
    assert code == 0
    assert float(doc["p"]) == pytest.approx(0.75)
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "lambda,mu,probability"


def test_sample_deterministic_bytes(capsys):
    args = ["sample", "--type", "A2", "--delta", "1,0", "--mode", "chamber",
            "--m", "0.2,0.1", "--steps", "25", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["letters"]) == 25 and len(doc["positions"]) == 26


def test_sample_csv(capsys):
    code, out, _ = run_cli(capsys, "sample", "--type", "A1", "--delta", "1",
                           "--mode", "free", "--m", "0", "--steps", "5",
                           "--seed", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "step,omega_1"


def test_verify_single_criterion(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "1", "--type", "A1")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["criterion"] == 1 and doc[0]["passed"]
    assert "criterion 1" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        parse(["verify", "--suite", "11"])
    assert exc.value.code == 2


@pytest.mark.parametrize("token", ["Z9", "A3", "a1", ""])
def test_verify_rejects_types_outside_the_suite(capsys, token):
    # a type the suite does not run would check nothing and pass
    with pytest.raises(SystemExit) as exc:
        parse(["verify", "--suite", "1", "--type", token])
    assert exc.value.code == 2
    assert "A1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["polytope", "faces", "--type", "A2", "--delta", "200,200"],
    ["drift", "invert", "--type", "A2", "--delta", "200,200", "--m", "0,0"],
    ["measure", "eval", "--type", "A2", "--delta", "200,200", "--mode", "free", "--m", "0,0"],
    ["sample", "--type", "A2", "--delta", "200,200", "--mode", "free", "--m", "0,0",
     "--steps", "5", "--seed", "1"],
])
def test_commands_refuse_delta_over_dimension_cap(capsys, argv):
    # dim V(200,200) = 8,120,601 is over the default cap: no table of V(delta) is built
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"] == "DimensionCap"


def test_byte_stable_output(capsys):
    for args in (
        ["root", "info", "--type", "B2"],
        ["polytope", "faces", "--type", "A2", "--delta", "1,1"],
        ["measure", "eval", "--type", "A1", "--delta", "1", "--mode", "free",
         "--m", "1/4"],
    ):
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_exact_outputs_match_golden_bytes(capsys, command):
    # the float-free outputs, recorded when weights were still Fraction tuples:
    # int weights must print the same bytes (str(3) == str(Fraction(3)))
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == GOLDEN[command]


@pytest.mark.parametrize("argv,flag", [
    (["sample", "--type", "A1", "--delta", "1", "--mode", "chamber", "--m", "0",
      "--steps", "-1", "--seed", "1"], "--steps"),
    (["graph", "build", "--type", "A1", "--delta", "1", "--kind", "chamber",
      "--nmax", "-3"], "--nmax"),
    (["measure", "eval", "--type", "A2", "--delta", "1,1", "--mode", "chamber",
      "--m", "0.3,0.3", "--n=-1"], "--n"),
    (["sample", "--type", "A2", "--delta", "1,1", "--mode", "chamber", "--m", "0.3,0.2",
      "--steps", "3", "--seed", "-1"], "--seed"),
    (["graph", "build", "--type", "A2", "--delta", "1,0", "--kind", "chamber",
      "--nmax", "2", "--level-cap", "-1"], "--level-cap"),
    (["graph", "build", "--type", "A2", "--delta", "1,0", "--kind", "chamber",
      "--nmax", "2", "--level-cap", "0"], "--level-cap"),
    (["crystal", "build", "--type", "A2", "--delta", "1,0", "--dim-cap", "-5"], "--dim-cap"),
    (["crystal", "build", "--type", "A2", "--delta", "1,0", "--dim-cap", "0"], "--dim-cap"),
])
def test_negative_count_is_usage_error(capsys, argv, flag):
    # counts must be >= 0 and caps >= 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    if flag.endswith("-cap"):
        assert f"{flag} must be at least 1, got {argv[-1]}" in out.err
    else:
        assert f"{flag} must be nonnegative, got -" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("mode,m,lam", [("free", "0.3,0.3", "1,1"),
                                        ("chamber", "0.3,0.2", "2,2")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_kernel_rows_print_plain_floats(capsys, mode, m, lam, fmt):
    code, out, _ = run_cli(capsys, "measure", "eval", "--type", "A2", "--delta", "1,1",
                           "--mode", mode, "--m", m, "--lambda", lam, "--n", "3",
                           "--format", fmt)
    assert code == 0
    assert "np." not in out
    if fmt == "json":
        probs = list(json.loads(out)["kernel_row"].values())
    else:
        probs = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert probs and sum(float(q) for q in probs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("args,detail", [
    (["--delta=-1,1", "--m", "0,0"], "(-1, 1) is not a dominant integral weight"),
    (["--delta", "0,0", "--m", "0,0"], "delta must be nonzero"),
    (["--delta", "1,1", "--m", "0.3,0.3", "--lambda=-1,2"],
     "(-1, 2) is not a dominant integral weight"),
    # csv prints the kernel row before p, so kernel_row itself must refuse
    (["--delta", "1,1", "--m", "0.3,0.3", "--lambda=-1,2", "--format", "csv"],
     "(-1, 2) is not a dominant integral weight"),
    (["--delta", "1,1", "--m", "0.3,0.3", "--lambda", "1/2,0"],
     "(1/2, 0) is not a dominant integral weight"),
    (["--delta", "1,1", "--m", "0.3,0.3", "--lambda", "1/2,0", "--format", "csv"],
     "(1/2, 0) is not a dominant integral weight"),
])
def test_domain_input_errors_exit_2(capsys, args, detail):
    code, out, err = run_cli(capsys, "measure", "eval", "--type", "A2",
                             "--mode", "chamber", *args)
    assert code == 2 and "Traceback" not in err
    assert json.loads(out) == {"error": "InvalidWeight", "detail": detail}


NEAR_VERTEX = [
    ["--type", "A3", "--delta", "1,0,0", "--m", "0.9999999974881136,0,0"],
    ["--type", "F4", "--delta", "0,0,0,1", "--m", "0,0,0,0.999999999"],
]


@pytest.mark.parametrize("argv", NEAR_VERTEX)
def test_drift_inversion_near_a_vertex_exits_0(capsys, argv):
    # next to the vertex delta, the point's drift is m within 1e-8
    code, out, err = run_cli(capsys, "drift", "invert", *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    m = [float(Fraction(c)) for c in argv[-1].split(",")]
    assert max(abs(float(d) - c) for d, c in zip(doc["drift"], m)) < 1e-8
    assert doc["w_word"] == [] and max(map(float, doc["t"])) <= 1.0


def test_drift_inversion_no_convergence_exits_2(capsys, monkeypatch):
    # a NoConvergence is a domain error, no traceback, with the exception's
    # diagnostics in strict JSON
    import weylwalks.boundary as boundary_module

    monkeypatch.setattr(boundary_module, "_face_newton",
                        lambda cartan, delta, support, target: dict.fromkeys(support, 1.0))
    code, out, err = run_cli(capsys, "drift", "invert", *NEAR_VERTEX[0])
    assert code == 2 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["error"] == "NoConvergence" and doc["detail"].endswith("left the box")
    assert sorted(doc["diagnostics"]) == ["support", "t_i", "target"]
    assert float(doc["diagnostics"]["t_i"]) > 1.0 + 1e-6
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("args,error,detail", [
    (["--mode", "chamber", "--lambda", "2,2"], "OrderViolation",
     "(1, 1) is not >= (2, 2) in the root order"),
    (["--mode", "free", "--lambda", "1/2,0"], "NotAWeight",
     "(1/2, 0) is not a weight at level 1"),
    # csv prints the free kernel row without p, so kernel_row itself must refuse
    (["--mode", "free", "--lambda", "1/2,0", "--format", "csv"], "NotAWeight",
     "(1/2, 0) is not an integral weight"),
])
def test_error_details_print_plain_weights(capsys, args, error, detail):
    code, out, _ = run_cli(capsys, "measure", "eval", "--type", "A2", "--delta", "1,1",
                           "--m", "0.3,0.3", *args)
    assert code == 2
    assert json.loads(out) == {"error": error, "detail": detail}


@pytest.mark.parametrize("argv,detail", [
    (["measure", "eval", "--type", "A2", "--delta", "1,0", "--mode", "chamber",
      "--m", "-1/5,1/5"], "(-1/5, 1/5) is not in K(1, 0)+"),
    (["sample", "--type", "A1", "--delta", "1", "--mode", "chamber", "--m", "-1",
      "--steps", "3", "--seed", "1"], "(-1) is not in K(1)+"),
])
def test_not_dominant_drift_detail_prints_plain_weights(capsys, argv, detail):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": "NotDominantDrift", "detail": detail}


def test_chamber_eval_builds_no_table_of_lambda(capsys):
    # dim V(100, 100) = 1,030,301 exceeds the default dimension cap, but chamber
    # p and kernel rows use Weyl numerators, never a table of V(lambda)
    code, out, err = run_cli(capsys, "measure", "eval", "--type", "A2", "--delta", "1,1",
                             "--mode", "chamber", "--m", "0.3,0.3", "--lambda", "100,100",
                             "--n", "100")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert 0.0 < float(doc["p"]) < 1.0 and math.isfinite(float(doc["p"]))
    assert len(doc["kernel_row"]) == 7
    assert abs(sum(float(q) for q in doc["kernel_row"].values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("mode", ["free", "chamber"])
def test_measure_eval_at_large_n_prints_json(capsys, mode):
    # S_delta(t)^400 overflows binary64 (8^400 near t = 1); p is formed in log space
    code, out, err = run_cli(capsys, "measure", "eval", "--type", "A2", "--delta", "1,1",
                             "--mode", mode, "--m", "0.01,0.01", "--lambda", "0,0",
                             "--n", "400")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["n"] == 400 and doc["p"] == "0.0"


@pytest.mark.parametrize("mode,m,lam,p", [
    ("free", "0.5", "1", "0.0"),
    ("chamber", "0.5", "1", "0.0"),
    # t = 0: S_delta = 1 and t^0 = 1, so p(n delta, n) = 1 at any n
    ("free", "1", str(10**400 + 1), "1.0"),
], ids=["free", "chamber", "free-vertex"])
def test_measure_eval_past_the_float_range_prints_json(capsys, mode, m, lam, p):
    # n = 10^400 + 1 has no float: p is formed without converting it
    n = 10**400 + 1
    code, out, err = run_cli(capsys, "measure", "eval", "--type", "A1", "--delta", "1",
                             "--mode", mode, "--m", m, "--lambda", lam, "--n", str(n))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["n"] == n and doc["p"] == p


@pytest.mark.parametrize("lam", [2**62, 2**63])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_chamber_weights_past_int64_are_domain_errors(capsys, lam, fmt):
    # the Weyl numerators' exponent rows are int64 products; they must not wrap
    code, out, err = run_cli(capsys, "measure", "eval", "--type", "A2", "--delta", "1,1",
                             "--mode", "chamber", "--m", "0.3,0.2", "--lambda", f"{lam},{lam}",
                             "--n", str(lam), "--format", fmt)
    assert code == 2 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["error"] == "InvalidWeight" and "overflows int64" in doc["detail"]


@pytest.mark.parametrize("coord", [1000, 10**14])
def test_pairing_products_past_binary64_are_domain_errors(coord):
    # F4 at t = 1: N_lambda is the product of 24 coroot pairings, near 1e14 each
    # at the larger weight, which passes the float range well inside int64
    argv = ["measure", "eval", "--type", "F4", "--delta", "0,0,0,1", "--mode", "chamber",
            "--m", "0,0,0,0", "--lambda", ",".join([str(coord)] * 4), "--n", str(10**16)]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "weylwalks.cli",
                           *argv], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    if coord == 1000:
        assert proc.returncode == 0 and doc["p"] == "0.0" and doc["kernel_row"]
    else:
        assert proc.returncode == 2 and doc["error"] == "InvalidWeight"
        assert "overflows binary64" in doc["detail"]


def test_crystal_dimension_cap_detail_prints_plain_weight(capsys):
    code, out, _ = run_cli(capsys, "crystal", "build", "--type", "A2", "--delta", "1,0",
                           "--dim-cap", "2")
    assert code == 2
    assert json.loads(out) == {"error": "DimensionCap",
                               "detail": "dim V(1, 0) = 3 exceeds cap 2"}


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["root", "info", "--type", "A2"],
    ["graph", "build", "--type", "A1", "--delta", "1", "--kind", "free", "--nmax", "3"],
])
def test_caps_are_not_read_from_the_environment(capsys, monkeypatch, argv):
    # the caps are flags only: stale WEYLWALKS_* variables change nothing
    def run():
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        return code, capsys.readouterr().out

    unset = run()
    monkeypatch.setenv("WEYLWALKS_DIM_CAP", "abc")
    monkeypatch.setenv("WEYLWALKS_LEVEL_CAP", "0")
    assert run() == unset
    assert unset[0] == 0 and unset[1]


@pytest.mark.parametrize("argv", [
    ["sample", "--type", "A1", "--delta", "1", "--mode", "free", "--m", "0",
     "--steps", "5", "--seed", "1", "--dim-cap", "1"],
    ["sample", "--type", "A1", "--delta", "1", "--mode", "free", "--m", "0",
     "--steps", "5", "--seed", "1", "--level-cap", "1"],
    ["graph", "build", "--type", "A1", "--delta", "1", "--kind", "free", "--nmax", "2",
     "--dim-cap", "1"],
    ["crystal", "build", "--type", "A1", "--delta", "1", "--level-cap", "1"],
])
def test_cap_flags_belong_to_one_subcommand_each(capsys, argv):
    # --dim-cap is read by crystal build only, --level-cap by graph build only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_level_cap_flag_detail(capsys):
    code, out, _ = run_cli(capsys, "graph", "build", "--type", "A1", "--delta", "1",
                           "--kind", "free", "--nmax", "3", "--level-cap", "3")
    assert code == 2
    assert json.loads(out) == {"error": "LevelCap", "detail": "level 3 has 4 vertices > cap 3"}


def test_enum_cap_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["root", "info", "--type", "A2", "--enum-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --enum-cap 5" in capsys.readouterr().err


@pytest.mark.parametrize("flag,token", [("--m", "1e400"), ("--delta", "1e400")])
def test_non_finite_coordinate_is_usage_error(capsys, flag, token):
    argv = {"--delta": "1", "--m": "0"}
    argv[flag] = token
    with pytest.raises(SystemExit) as exc:
        main(["drift", "invert", "--type", "A1", "--delta", argv["--delta"], "--m", argv["--m"]])
    assert exc.value.code == 2
    assert f"cannot parse coordinate '{token}'" in capsys.readouterr().err


def test_decimal_drift_targets_are_snapped_like_the_library(capsys):
    m = "0.33333333334,0.33333333333"
    code, out, _ = run_cli(capsys, "drift", "invert", "--type", "A2", "--delta", "1,0",
                           "--m", m)
    assert code == 0
    point = invert_drift(build_root_system("A", 2), (1, 0), tuple(map(float, m.split(","))))
    assert json.loads(out)["t"] == [repr(x) for x in point.t] == ["0.5", "0.0"]


FUZZ_DELTAS = {"A1": ("1", "2"), "A2": ("1,0", "1,1", "0,0"), "B2": ("1,0", "0,1", "-1,1"),
               "G2": ("1,0", "0,1")}


@st.composite
def drift_target(draw, cartan, delta):
    """A point of K(delta) as --m: a convex combination of a few points of the
    Weyl orbit of delta (faces), scaled toward 0 (t near 1) or past 1, or one
    orbit point scaled to within 1e-11 to 1e-7 of it (near a vertex), and
    often made dominant (chamber walks)."""
    orbit = cartan.orbit(tuple(Fraction(c) for c in delta.split(",")))
    scale = draw(st.sampled_from([1.0, 0.5, 1e-3, 1e-6, 1e-9, 1e-13, 1.0 + 1e-9, 1.01,
                                  1 - 1e-11, 1 - 1e-9, 1 - 1e-7]))
    if 1 - 1e-7 <= scale < 1.0:
        verts, coefs = [draw(st.sampled_from(orbit))], [1.0]
    else:
        verts = draw(st.lists(st.sampled_from(orbit), min_size=1, max_size=len(orbit)))
        coefs = draw(st.lists(st.floats(0, 1), min_size=len(verts), max_size=len(verts)))
    m = [scale * sum(c * float(v[i]) for c, v in zip(coefs, verts)) / (sum(coefs) or 1.0)
         for i in range(cartan.rank)]
    if draw(st.booleans()):
        y, _ = dominant_representative(cartan, tuple(Fraction(x) for x in m))
        m = [float(c) for c in y]
    if draw(st.booleans()):
        return ",".join(str(Fraction(x).limit_denominator(1000)) for x in m)
    return ",".join(repr(x) for x in m)


@st.composite
def cli_argv(draw):
    tok = draw(st.sampled_from(sorted(FUZZ_DELTAS)))
    cartan = cartan_type(tok)
    delta = draw(st.sampled_from(FUZZ_DELTAS[tok]))
    verb = draw(st.sampled_from(["root info", "crystal build", "graph build", "polytope faces",
                                 "measure eval", "drift invert", "sample"]))
    argv = verb.split() + ["--type", tok]
    if verb == "root info":
        return argv
    argv += ["--delta=" + delta]
    if verb == "graph build":
        return argv + ["--kind", draw(st.sampled_from(["free", "chamber"])),
                       "--nmax", str(draw(st.integers(0, 4)))]
    if verb in ("crystal build", "polytope faces"):
        return argv
    if verb in ("measure eval", "sample"):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    argv += ["--m=" + draw(drift_target(cartan, delta))]
    if verb == "drift invert":
        return argv
    argv += ["--mode", draw(st.sampled_from(["free", "chamber"]))]
    if verb == "sample":
        return argv + ["--steps", str(draw(st.integers(0, 20))),
                       "--seed", str(draw(st.integers(0, 2**32)))]
    if draw(st.booleans()):
        lam = [draw(st.integers(-1, 5)) for _ in range(cartan.rank)]
        argv += ["--lambda=" + ",".join(map(str, lam))]
    return argv + ["--n", str(draw(st.integers(0, 4) | st.integers(100, 999)))]


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_contract_on_random_argv(argv):
    # exit 0 or 2, errors as JSON, no exception or traceback
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
            assert code == 2 and out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2), argv
    if code == 2 and out.getvalue():
        assert set(json.loads(out.getvalue())) == {"error", "detail"}
    elif code == 0 and "csv" in argv and argv[0] in ("measure", "sample"):
        assert out.getvalue().count("\n") >= 2
    elif code == 0:
        json.loads(out.getvalue())
