"""CLI harness: exit codes, determinism, reports, table emission."""

import json
import subprocess
import sys

import numpy as np
import pytest

from g2lab import cli
from g2lab.errors import BadConfig, UnknownSuite


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "g2lab.cli", *args],
                          capture_output=True, text=True)


def test_unknown_suite_exit_code():
    res = run_cli("verify", "definitely-not-a-suite")
    assert res.returncode == 2


def test_bad_usage_exit_code():
    res = run_cli("verify")
    assert res.returncode == 2
    res = run_cli("verify", "octonion", "--jobs", "2")
    assert res.returncode == 2


def test_bad_tolerance_exit_code():
    res = run_cli("verify", "octonion", "--tol", "notakeyval")
    assert res.returncode == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tolerance_is_a_config_error(value, capsys):
    # refused as a bad configuration (2), not run into a failed check (1)
    assert cli.main(["verify", "octonion", "--trials", "1",
                     "--tol", f"norm_multiplicativity={value}"]) == 2
    assert "norm_multiplicativity" in capsys.readouterr().err
    with pytest.raises(BadConfig, match="finite"):
        cli.RunConfig(tolerances={"alternativity": float(value)})
    cli.RunConfig(tolerances={"alternativity": 1e-30, "wedge": 0.0})


def test_trial_count_refused_before_allocating():
    # 1e13 octonion trials would need ~640 TB; the count is refused first
    assert cli.main(["verify", "octonion", "--trials",
                     "10000000000000"]) == 2
    cli.RunConfig(trials=cli.MAX_TRIALS)
    with pytest.raises(BadConfig, match="trials"):
        cli.RunConfig(trials=cli.MAX_TRIALS + 1)


def test_unread_tolerance_key_exit_code(capsys):
    assert cli.main(["verify", "octonion", "--trials", "1",
                     "--tol", "typo_key=1e-300"]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_undeclared_tolerance_key_refused_before_the_suite_runs(monkeypatch,
                                                              capsys):
    from g2lab import connection

    def never(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(connection, "akivis_check", never)
    assert cli.main(["verify", "akivis", "--tol", "typo_key=1"]) == 2
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(cli.SUITES))
def test_declared_tolerances_are_the_rows(name):
    # a declared key that is no row would be an override that does nothing;
    # cs_table_floor is the one that feeds a row of a fixed tolerance
    _, pinned = cli.SUITES[name]
    report = cli.run_suite(name, cli.RunConfig(seed=3, trials=2))
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == len(names)
    fixed = {"cs_table_decreasing"} if name == "akivis" else set()
    extra = {"cs_table_floor"} if name == "akivis" else set()
    assert set(pinned) == set(names) - fixed | extra
    for c in report["checks"]:
        if c["name"] not in fixed:
            assert c["tolerance"] == pinned[c["name"]]


def test_charts_list():
    # the chart listing is gone with the chart config layer; the command is
    # now refused as unknown usage
    res = run_cli("charts", "list")
    assert res.returncode == 2
    assert "invalid choice: 'charts'" in res.stderr


def test_run_suite_passes_and_reports():
    config = cli.RunConfig(seed=7, trials=200)
    report = cli.run_suite("octonion", config)
    assert report["pass"] is True
    assert report["schema"] == 1
    assert all(c["max_residual"] <= c["tolerance"] for c in report["checks"])


def test_failure_exit_code(tmp_path):
    # force a failure with an impossible tolerance override
    res = run_cli("verify", "octonion", "--trials", "50",
                  "--tol", "norm_multiplicativity=1e-30")
    assert res.returncode == 1


def test_serial_determinism():
    config1 = cli.RunConfig(seed=11, trials=100)
    config2 = cli.RunConfig(seed=11, trials=100)
    r1 = cli.run_suite("octonion", config1)
    r2 = cli.run_suite("octonion", config2)
    for rep in (r1, r2):
        rep.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_seed_changes_residuals():
    r1 = cli.run_suite("octonion", cli.RunConfig(seed=1, trials=500))
    r2 = cli.run_suite("octonion", cli.RunConfig(seed=2, trials=500))
    v1 = [c["max_residual"] for c in r1["checks"]]
    v2 = [c["max_residual"] for c in r2["checks"]]
    assert v1 != v2


def test_run_config_validation():
    with pytest.raises(BadConfig):
        cli.RunConfig(trials=0)
    with pytest.raises(UnknownSuite):
        cli.run_suite("nope", cli.RunConfig())


def test_emit_tables(tmp_path):
    paths = cli.emit_tables(tmp_path)
    assert len(paths) == 3
    table = json.loads((tmp_path / "octonion_table.json").read_text())
    # e1 e2 = +e3
    assert table["entries"][1][2] == {"index": 3, "sign": 1}
    # antisymmetry under swap for distinct imaginary units
    assert table["entries"][2][1] == {"index": 3, "sign": -1}
    c4 = json.loads((tmp_path / "c4_table.json").read_text())
    from g2lab.octonion import C4
    for entry in c4["entries"][:20]:
        idx = tuple(i - 1 for i in entry["ijkl"])
        assert C4[idx] == entry["value"]
    cl_tables = json.loads((tmp_path / "clifford_tables.json").read_text())
    assert "cl_0_2" in cl_tables and "cl_2_2" in cl_tables


def test_table_consistent_with_associator_oracle(tmp_path):
    cli.emit_tables(tmp_path)
    data = json.loads((tmp_path / "c4_table.json").read_text())
    from g2lab import octonion as oc
    lookup = {tuple(e["ijkl"]): e["value"] for e in data["entries"]}
    rng = np.random.default_rng(0)
    for _ in range(10):
        j, k, l = rng.integers(1, 8, 3)
        e = np.eye(8)
        assoc = oc.associator(e[j], e[k], e[l])
        for i in range(1, 8):
            want = 2.0 * lookup.get((i, j, k, l), 0.0)
            assert abs(assoc[i] - want) < 1e-14


def test_cli_verify_writes_report(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "octonion", "--trials", "100", "--seed", "5",
                  "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "octonion"
    assert report["seed"] == 5
    assert report["pass"] is True


def test_nan_in_later_trial_fails_closed(tmp_path, monkeypatch):
    # only trial 1 of 3 returns NaN; a max over the trials must not drop it
    from g2lab import deform
    real = deform.composition_residual
    calls = []

    def planted(*args, **kwargs):
        calls.append(None)
        return float("nan") if len(calls) == 2 else real(*args, **kwargs)

    monkeypatch.setattr(deform, "composition_residual", planted)
    report = cli.run_suite("deform", cli.RunConfig(seed=4, trials=3))
    assert len(calls) == 3
    assert report["pass"] is False
    row = next(c for c in report["checks"] if c["name"] == "composition_law")
    assert row["pass"] is False
    calls.clear()
    out = tmp_path / "r.json"
    assert cli.main(["verify", "deform", "--trials", "3",
                     "--out", str(out)]) == 1
    assert json.loads(out.read_text())["pass"] is False


def test_infinite_rate_denominator_fails_closed(monkeypatch):
    # an infinite residual at h must not read as convergence rate 0
    from g2lab import field
    real = field.torsion_law_residual
    calls = []

    def planted(*args, **kwargs):
        calls.append(None)
        res = real(*args, **kwargs)
        return float("inf") if len(calls) == 1 else res

    monkeypatch.setattr(field, "torsion_law_residual", planted)
    report = cli.run_suite("g2field", cli.RunConfig(seed=4))
    assert len(calls) == 2
    row = next(c for c in report["checks"] if c["name"] == "torsion_law_rate")
    assert row["pass"] is False
    assert report["pass"] is False


def test_unwritable_out_exit_code(tmp_path):
    out = tmp_path / "missing-dir" / "x.json"
    assert cli.main(["verify", "octonion", "--trials", "1",
                     "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("verify", "octonion", "--trials", "1", "--out"),
    ("tables", "--out"),
], ids=["verify", "tables"])
def test_io_failure_exits_1_with_one_error_line(tmp_path, command):
    # a path under a regular file can be neither made nor written
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = run_cli(*command, str(blocker / "out"))
    assert res.returncode == 1
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
