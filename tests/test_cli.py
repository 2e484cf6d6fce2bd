"""End-to-end tests for the command-line front end.

Everything goes through main(argv) in-process; one subprocess case
checks the module entry point wiring.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orlicz import cli
from orlicz.functions import (
    BUILTIN_FAMILIES,
    FAMILIES,
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    PiecewiseLinear,
    Power,
    QuantileStep,
)
from orlicz.properties import SUITES, Failure, SuiteReport


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def dist_csv(tmp_path):
    return write(tmp_path / "d.csv", "0.5,0.25\n2,0.75\n")


@pytest.fixture
def sample_csv(tmp_path):
    return write(tmp_path / "s.csv", "value\n1\n3\n")


def test_premium_envelope(capsys, dist_csv):
    rc, out, _ = run_cli(capsys, "premium", "--phi", "power:2", "--data", dist_csv)
    assert rc == 0
    env = json.loads(out)
    assert env["command"] == "premium"
    # sqrt(0.25 * 0.25 + 0.75 * 4) = 1.75 exactly
    assert env["result"]["value"] == 1.75
    assert env["result"]["route"].startswith("closed_form")
    assert env["result"]["bracket"][0] <= 1.75 <= env["result"]["bracket"][1]
    assert env["diagnostics"]["n"] == 2


def test_sample_format_skips_header(capsys, sample_csv):
    rc, out, _ = run_cli(capsys, "premium", "--phi", "power:1", "--data", sample_csv)
    assert rc == 0
    env = json.loads(out)
    assert env["result"]["value"] == pytest.approx(2.0, abs=1e-12)


def test_explicit_dist_format(capsys, dist_csv):
    rc, out, _ = run_cli(
        capsys, "premium", "--phi", "power:1", "--data", dist_csv, "--format", "dist"
    )
    assert rc == 0
    env = json.loads(out)
    assert env["result"]["value"] == pytest.approx(0.5 * 0.25 + 2 * 0.75, abs=1e-12)


def test_pwl_spec_from_file(capsys, tmp_path):
    pwl = write(
        tmp_path / "phi.txt",
        "# the identity up to 1 (0,0 is a knot), slope 2 beyond\n0,0\n0.5,0.5\n1,1\n2,3\n",
    )
    data = write(tmp_path / "x.csv", "2\n")
    rc, out, _ = run_cli(capsys, "premium", "--phi", f"pwl:{pwl}", "--data", data)
    assert rc == 0
    env = json.loads(out)
    assert env["result"]["value"] == pytest.approx(2.0, rel=1e-9, abs=0.0)
    assert cli.parse_phi_spec(f"pwl:{pwl}")(0.25) == 0.25  # the 0,0 row is a knot


def test_pwl_file_knot_at_zero_makes_a_convex_phi(capsys, tmp_path):
    pwl = write(tmp_path / "phi.txt", "0,0\n1,1\n2,3\n4,9\n")
    data = write(tmp_path / "x.csv", "0.4\n1.3\n4.15\n")
    phi = cli.parse_phi_spec(f"pwl:{pwl}")
    assert phi.points[0] == (0.0, 0.0)
    assert phi.convex_flag is True
    rc, out, _ = run_cli(capsys, "hg", "--phi", f"pwl:{pwl}", "--data", data)
    assert rc == 0
    diag = json.loads(out)["diagnostics"]
    assert (diag["route"], diag["evaluations"]) == ("tail", 0)


def test_pwl_file_rows_at_zero(tmp_path):
    # two finite 0,y rows are a jump at 0; 0,-inf sets only the value at zero
    jump = cli.parse_phi_spec("pwl:" + write(tmp_path / "j.txt", "0,0.5\n0,0\n1,1\n"))
    assert (jump.at_zero, jump(0.5)) == (0.5, 0.5)
    assert jump.convex_flag is True  # Phi(0) >= Phi(0+)
    logs = cli.parse_phi_spec("pwl:" + write(tmp_path / "l.txt", "0,-inf\n0,0\n1,1\n"))
    assert logs.at_zero == float("-inf")
    assert logs.points == ((0.0, 0.0), (1.0, 1.0))


def test_conjugate_table(capsys):
    rc, out, _ = run_cli(capsys, "conjugate", "--phi", "power:2", "--at", "0,1,2")
    assert rc == 0
    env = json.loads(out)
    pairs = env["result"]["pairs"]
    assert pairs[0] == [0.0, 0.0]
    assert pairs[1] == pytest.approx([1.0, 0.25])
    assert pairs[2] == pytest.approx([2.0, 1.0])
    assert env["diagnostics"]["convex_flag"] is True


def test_conjugate_table_of_a_knotted_family(capsys):
    # expectile:0.8 is 1 - 0.2 (1 - x) below 1 and 1 + 0.8 (x - 1) above:
    # Psi(y) = -Phi(0) = -0.8 up to the slope 0.2, y - 1 up to the slope 0.8,
    # +inf beyond; the floats are those the scalar knot maximum printed
    rc, out, _ = run_cli(capsys, "conjugate", "--phi", "expectile:0.8", "--at", "0,0.2,0.5,0.8,0.81")
    assert rc == 0
    pairs = json.loads(out)["result"]["pairs"]
    assert pairs == [[0.0, -0.8], [0.2, -0.8], [0.5, -0.5], [0.8, -0.19999999999999996], [0.81, "inf"]]


@pytest.mark.parametrize("spec", ["power:2", "power:3.5", "lpq:2,0,2,1"])
def test_conjugate_past_the_float_range_prints_inf(capsys, spec):
    # the closed form's power once raised an uncaught OverflowError here
    rc, out, _ = run_cli(capsys, "conjugate", "--phi", spec, "--at", "1e300,2")
    assert rc == 0
    pairs = json.loads(out)["result"]["pairs"]
    assert pairs[0] == [1e300, "inf"]
    assert pairs[1][1] < 2.0


def test_conjugate_rejects_negative_argument(capsys):
    rc, _, err = run_cli(capsys, "conjugate", "--phi", "power:2", "--at", "-1")
    assert rc == 2
    assert "input error" in err


def test_dual_verify_expectile(capsys, tmp_path):
    data = write(tmp_path / "x.csv", "1\n3\n")
    rc, out, _ = run_cli(capsys, "dual-verify", "--phi", "expectile:0.8", "--data", data)
    assert rc == 0
    env = json.loads(out)
    res = env["result"]
    assert res["primal"] == pytest.approx(2.6, abs=1e-9)
    assert res["best_bound"] == pytest.approx(2.6, abs=1e-9)
    assert abs(res["gap"]) <= 1e-9
    assert res["argmax_density"] == pytest.approx([0.4, 1.6], abs=1e-9)
    assert env["diagnostics"]["route"] == "first_order"


def test_dual_verify_pwl_takes_the_first_order_route(capsys, tmp_path):
    # a grid search here ran 5,151 numeric-conjugate penalties and took minutes
    pwl = write(tmp_path / "phi.txt", "0.5,0.25\n1,1\n2,3\n4,9\n")
    data = write(tmp_path / "x.csv", "0.7\n1.9\n2.6\n")
    rc, out, _ = run_cli(capsys, "dual-verify", "--phi", f"pwl:{pwl}", "--data", data)
    assert rc == 0
    env = json.loads(out)
    res = env["result"]
    assert env["diagnostics"]["route"] == "first_order"
    assert abs(res["gap"]) <= 1e-9 * max(1.0, res["primal"])


CAPPED_CONVEX_PWL = "0.5,0.5\n1,1\n2,3\n5,inf\n"  # slopes 0, 1, 2; +inf beyond 5


def test_conjugate_on_a_capped_convex_pwl(capsys, tmp_path):
    # a finite upper does not keep the convexity flag from being certified
    pwl = write(tmp_path / "phi.txt", CAPPED_CONVEX_PWL)
    rc, out, _ = run_cli(capsys, "conjugate", "--phi", f"pwl:{pwl}", "--at", "0,1,2,3,10")
    assert rc == 0
    env = json.loads(out)
    assert env["diagnostics"]["convex_flag"] is True
    # past the end slope the sup stops at x = upper: 5 y - Phi(5) = 5 y - 9
    assert env["result"]["pairs"] == [[0.0, -0.5], [1.0, 0.0], [2.0, 1.0], [3.0, 6.0], [10.0, 41.0]]


def test_dual_verify_on_a_capped_convex_pwl(capsys, tmp_path):
    pwl = write(tmp_path / "phi.txt", CAPPED_CONVEX_PWL)
    data = write(tmp_path / "x.csv", "1\n3\n")
    rc, out, _ = run_cli(capsys, "dual-verify", "--phi", f"pwl:{pwl}", "--data", data)
    assert rc == 0
    env = json.loads(out)
    res = env["result"]
    assert env["diagnostics"]["route"] == "first_order"
    assert res["primal"] == pytest.approx(2.4, rel=1e-9, abs=0.0)  # Phi(1/2.4) = 0.5, Phi(3/2.4) = 1.5
    assert abs(res["gap"]) <= 1e-9 * max(1.0, res["primal"])


def test_conjugate_of_lpq_without_loss_weight_is_the_closed_form(capsys):
    # Psi(y) = y - 1 + (p-1) a (y / (a p))^(p / (p-1)) = y - 1 + y^2 / 8 for a = p = 2
    rc, out, _ = run_cli(capsys, "conjugate", "--phi", "lpq:2,0,2,1", "--at", "0,0.5,1,2,4")
    assert rc == 0
    pairs = json.loads(out)["result"]["pairs"]
    assert pairs == [[0.0, -1.0], [0.5, -0.46875], [1.0, 0.125], [2.0, 1.5], [4.0, 5.0]]


def test_hg_profile_export(capsys, tmp_path):
    data = write(tmp_path / "x.csv", "1\n3\n")
    prof = tmp_path / "profile.csv"
    rc, out, _ = run_cli(
        capsys, "hg", "--phi", "gm", "--data", data, "--profile", str(prof)
    )
    assert rc == 0
    env = json.loads(out)
    assert env["result"] == {"value": 1.0, "minimizer_x": 1.0}
    assert env["diagnostics"]["profile_written"] == str(prof)
    assert env["diagnostics"]["route"] == "neg_inf_at_zero"
    assert env["diagnostics"]["attained"] is True
    # Phi(0) = -inf settles gm from the one point it evaluates, g(min X)
    assert prof.read_text().strip().splitlines() == ["x,g", "1.0,1.0"]


def test_hg_power_two_is_the_unattained_mean(capsys, tmp_path):
    data = write(tmp_path / "x.csv", "1,0.25\n2,0.25\n4.5,0.5\n")
    prof = tmp_path / "profile.csv"
    rc, out, _ = run_cli(
        capsys, "hg", "--phi", "power:2", "--data", data, "--profile", str(prof)
    )
    assert rc == 0
    env = json.loads(out)
    assert env["result"] == {"value": 3.0, "minimizer_x": "-inf"}
    diag = env["diagnostics"]
    assert diag["attained"] is False
    assert diag["route"] == "limit"
    assert diag["evaluations"] == 0
    assert (diag["extensions"], diag["floor_active"]) == (0, False)
    assert prof.read_text().strip().splitlines() == ["x,g"]


def test_hg_pwl_that_jumps_at_one_exits_1(capsys, tmp_path):
    pwl = write(tmp_path / "phi.txt", "0,0.5\n1,1\n1,1.5\n3,2\n")
    data = write(tmp_path / "x.csv", "1\n3\n")
    rc, out, err = run_cli(capsys, "hg", "--phi", f"pwl:{pwl}", "--data", data)
    assert rc == 1
    assert out == ""
    assert "computation error: no HG route" in err


def test_premium_takes_no_tol_and_hg_rejects_a_zero_tol(capsys, dist_csv):
    # every premium closes to adjacent floats, so premium has no --tol and
    # no inputs.tol; hg's --tol sets the window polish and is still checked
    rc, out, _ = run_cli(capsys, "premium", "--phi", "expectile:0.8", "--data", dist_csv)
    assert rc == 0 and set(json.loads(out)["inputs"]) == {"phi", "data"}
    with pytest.raises(SystemExit) as exc:
        cli.main(["premium", "--phi", "expectile:0.8", "--data", dist_csv, "--tol", "1e-10"])
    assert exc.value.code == 2
    rc, out, err = run_cli(capsys, "hg", "--phi", "lpq:1.5,0.5,1,2", "--data", dist_csv, "--tol", "0")
    assert (rc, out) == (1, "")
    assert "computation error: tolerance must be positive" in err


def test_properties_single_suite(capsys):
    rc, out, _ = run_cli(
        capsys, "properties", "--suite", "axioms", "--trials", "8", "--seed", "1"
    )
    assert rc == 0
    env = json.loads(out)
    assert env["result"]["all_passed"] is True
    assert env["result"]["suites"][0]["suite"] == "axioms"


def test_properties_all_suites(capsys):
    rc, out, _ = run_cli(capsys, "properties", "--trials", "4")
    assert rc == 0
    env = json.loads(out)
    assert [r["suite"] for r in env["result"]["suites"]] == list(SUITES)
    assert set(env["diagnostics"]) == {"defaults"}


def test_properties_failure_exit_code(capsys, monkeypatch):
    bad = SuiteReport(
        "axioms",
        1,
        (Failure(seed=0, trial=0, inputs="x", observed="0", expected="1"),),
    )
    monkeypatch.setattr(cli, "run_suite", lambda nm, trials=None, seed=0: bad)
    rc, out, _ = run_cli(capsys, "properties", "--suite", "axioms", "--trials", "1")
    assert rc == 3
    env = json.loads(out)
    assert env["result"]["all_passed"] is False
    assert env["result"]["suites"][0]["failures"]


SPEC_EXAMPLES = (
    GeometricMean(),
    Power(2.0),
    QuantileStep(0.3),
    Expectile(0.8),
    LpQuantile(0.7, 1.5),
    LpqQuantile(1.5, 0.5, 1.0, 2.0),
    GeometricExpectile(2.0, 1.0),
)


def test_family_registry_covers_builtin_families():
    assert set(FAMILIES.values()) == set(BUILTIN_FAMILIES)
    assert len(FAMILIES) == len(BUILTIN_FAMILIES)
    # one example per family; pwl specs name a file, so they do not round-trip
    assert {type(phi) for phi in SPEC_EXAMPLES} == set(BUILTIN_FAMILIES) - {PiecewiseLinear}


@pytest.mark.parametrize("phi", SPEC_EXAMPLES, ids=lambda f: f.spec_string())
def test_spec_string_round_trips(phi):
    assert cli.parse_phi_spec(phi.spec_string()) == phi


def test_bad_phi_spec_is_input_error(capsys, sample_csv):
    rc, _, err = run_cli(capsys, "premium", "--phi", "power:2,3", "--data", sample_csv)
    assert rc == 2
    assert "bad phi spec" in err


def test_missing_data_file(capsys):
    rc, _, err = run_cli(capsys, "premium", "--phi", "gm", "--data", "/no/such/file.csv")
    assert rc == 2
    assert "cannot read" in err


def test_unknown_property_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["properties", "--suite", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_stdout_is_deterministic(capsys, dist_csv):
    rc1, out1, _ = run_cli(capsys, "premium", "--phi", "lpq:1.5,0.5,1,1", "--data", dist_csv)
    rc2, out2, _ = run_cli(capsys, "premium", "--phi", "lpq:1.5,0.5,1,1", "--data", dist_csv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_module_entry_point(tmp_path):
    # the child does not inherit pytest's pythonpath setting, so it is
    # handed the source tree on PYTHONPATH, as the tier-1 command does
    data = write(tmp_path / "x.csv", "1\n2\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz.cli", "premium", "--phi", "power:1", "--data", str(data)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["result"]["value"] == pytest.approx(1.5, abs=1e-12)
