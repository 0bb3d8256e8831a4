import json
from pathlib import Path

import numpy as np
import pytest

from harmop.cli import COMMANDS, CheckRecord, Report, RunConfig, emit, main, parse_report, run
from harmop.groups import cyclic_group, symmetric_group
from harmop.functions import function_to_json, indicator_function, measure_to_json
from harmop.functions import Measure


def _strip_wall_time(text: str) -> dict:
    data = json.loads(text)
    data.pop("wall_time_s")
    return data


def test_verify_s3_with_sigma_file(tmp_path, capsys):
    s3 = symmetric_group(3)
    sigma = indicator_function(s3, (0, 3, 4))
    path = tmp_path / "indicator-A3.json"
    path.write_text(json.dumps(function_to_json(sigma)))
    code = main(["verify", "--group", "S3", "--sigma", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    dims = [c for c in data["checks"] if c["name"].endswith("dimension")]
    assert dims and all(c["passed"] for c in dims)


def test_unknown_group_kind_is_usage_error(capsys):
    assert main(["verify", "--group", "foo"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["explode", "--group", "Z4"])
    assert err.value.code == 2


def test_broken_group_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "order": 2}')
    assert main(["verify", "--group", str(path)]) == 2


def test_group_file_input(tmp_path, capsys):
    s3 = symmetric_group(3)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(s3.to_json()))
    assert main(["verify", "--group", str(path), "--count", "2"]) == 0


def test_tolerance_echoed(capsys):
    assert main(["verify", "--group", "Z4", "--count", "1", "--tol", "1e-6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["tol"] == 1e-6
    route_checks = [c for c in data["checks"] if c["name"].endswith("three_routes")]
    assert all(c["tolerance"] == 1e-6 for c in route_checks)


def test_json_deterministic_for_fixed_seed():
    config = RunConfig(command="support", group="S3", count=10, seed=42)
    first = _strip_wall_time(emit(run(config), "json"))
    second = _strip_wall_time(emit(run(config), "json"))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_json_differs_for_other_seed():
    base = RunConfig(command="fixed-points", group="Z6", count=3, seed=1)
    other = RunConfig(command="fixed-points", group="Z6", count=3, seed=2)
    a = _strip_wall_time(emit(run(base), "json"))
    b = _strip_wall_time(emit(run(other), "json"))
    assert a["config"] != b["config"]


def test_report_round_trip():
    report = run(RunConfig(command="support", group="Z4", count=5))
    back = parse_report(emit(report, "json"))
    assert back == report


def test_empty_report_emits():
    report = Report(config={"command": "verify"}, checks=[], wall_time_s=0.0)
    assert json.loads(emit(report, "json"))["summary"]["total"] == 0
    assert "summary: 0/0" in emit(report, "markdown")


def test_markdown_one_row_per_check():
    report = run(RunConfig(command="verify", group="Z4", count=2, format="markdown"))
    text = emit(report, "markdown")
    rows = [line for line in text.splitlines() if line.startswith("| verify")]
    assert len(rows) == len(report.checks)
    for check, row in zip(report.checks, rows):
        assert check.statement in row


@pytest.mark.parametrize("command", ["verify", "support", "fixed-points", "ideals",
                                     "limit-product", "fuzz"])
def test_all_commands_pass_on_small_group(command, capsys):
    code = main([command, "--group", "Z4", "--count", "2", "--seed", "7"])
    capsys.readouterr()
    assert code == 0


def test_measure_file_input(tmp_path, capsys):
    from harmop.groups import cyclic_group

    mu = Measure(cyclic_group(4), [0.0, 0.5, 0.0, 0.5])
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(measure_to_json(mu)))
    code = main(["fixed-points", "--group", "Z4", "--mu", str(path), "--count", "1"])
    capsys.readouterr()
    assert code == 0


def test_support_runs_at_the_order_cap(capsys):
    # order 120 is ORDER_CAP; the annihilator map is a 14400 x 120 stack
    assert main(["support", "--group", "Z120", "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


def test_failed_check_gives_exit_one(monkeypatch, capsys):
    import harmop.cli as cli
    from harmop.functions import GroupFunction

    def unaveraged_product(mode, a, b, *args, **kwargs):
        # the product before any averaging: right for constants and for
        # translation combinations, wrong for random f, g under the uniform measure
        return a @ b if mode == "operator" else GroupFunction(a.group, a.values * b.values)

    monkeypatch.setattr(cli, "limit_product", unaveraged_product)
    code = main(["limit-product", "--group", "Z4", "--count", "1"])
    out = capsys.readouterr().out
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["failed"] > 0


def test_max_n_is_a_usage_error():
    # limits are exact, so there is no averaging budget to set
    with pytest.raises(SystemExit) as err:
        main(["limit-product", "--group", "Z4", "--max-n", "1"])
    assert err.value.code == 2


def test_ideals_run_at_the_doubled_space_cap(capsys):
    # order 24 is SUPEROP_CAP; the predual-closure checks see 576-dim spaces
    assert main(["ideals", "--group", "S4", "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


def test_wrong_operator_limit_product_fails(monkeypatch, capsys):
    import harmop.cli as cli

    original = cli.limit_product

    def reversed_product(mode, a, b, *args, **kwargs):
        # t @ s differs from s @ t for translation combinations on S3
        return original(mode, b, a, *args, **kwargs) if mode == "operator" \
            else original(mode, a, b, *args, **kwargs)

    monkeypatch.setattr(cli, "limit_product", reversed_product)
    assert main(["limit-product", "--group", "S3", "--count", "1"]) == 1
    data = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    assert failed == ["limit-product/adapted0/operator_mode"]
    assert data["summary"]["failed"] == 1


def test_check_record_fields():
    report = run(RunConfig(command="verify", group="Z4", count=1))
    for check in report.checks:
        assert isinstance(check, CheckRecord)
        assert check.name and check.statement
        assert isinstance(check.metric, float)


SIGNATURE_GROUPS = ("Z6", "S3")
SIGNATURES = Path(__file__).parent / "data" / "cli_signatures.json"


def _signature(command: str, group: str) -> list[dict]:
    """Check names, verdicts and, for exact checks (tolerance 0), the integer
    metric of a fixed-seed report; a refactor must leave these unchanged."""
    report = run(RunConfig(command=command, group=group, count=2, seed=0))
    out = []
    for c in report.checks:
        entry = {"name": c.name, "passed": c.passed}
        if c.tolerance == 0:
            entry["metric"] = int(c.metric)
        out.append(entry)
    return out


@pytest.mark.parametrize("group", SIGNATURE_GROUPS)
@pytest.mark.parametrize("command", COMMANDS)
def test_fixed_seed_report_signature(command, group):
    expected = json.loads(SIGNATURES.read_text())[group][command]
    assert _signature(command, group) == expected


def test_fuzz_runs_the_three_routes_once_per_sigma(monkeypatch):
    import harmop.cli as cli

    calls = []
    original = cli.verify_main_theorem

    def counting(sigma, tol, parameter="sigma"):
        calls.append(parameter)
        return original(sigma, tol, parameter=parameter)

    monkeypatch.setattr(cli, "verify_main_theorem", counting)
    report = run(RunConfig(command="fuzz", group="S3", count=3, seed=0))
    assert sorted(calls) == ["nonpd0", "nonpd1", "nonpd2"]
    strict = [c for c in report.checks if c.name == "fuzz/strict_inclusion_candidates"]
    assert len(strict) == 1 and strict[0].passed and strict[0].metric == 0.0


def test_strict_inclusion_candidate_fails_the_fuzz_check(monkeypatch, capsys):
    import dataclasses

    import harmop.cli as cli

    original = cli.verify_main_theorem

    def shrunk(sigma, tol, parameter="sigma"):
        report = original(sigma, tol, parameter=parameter)
        dims = dict(report.dims, fixed_points=report.dims["stripe_span"] - 1)
        return dataclasses.replace(report, dims=dims)

    monkeypatch.setattr(cli, "verify_main_theorem", shrunk)
    assert main(["fuzz", "--group", "S3", "--count", "2", "--seed", "0"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    strict = [c for c in checks if c["name"] == "fuzz/strict_inclusion_candidates"]
    assert strict == [dict(strict[0], passed=False, metric=2.0)]


@pytest.mark.parametrize("error", ["LinAlgContractError", "ToleranceMisconfiguration"])
def test_broken_numerical_contract_exits_one(error, monkeypatch, capsys):
    import harmop.cli as cli

    def broken(*args, **kwargs):
        raise getattr(cli, error)("skewed tolerances")

    monkeypatch.setattr(cli, "verify_main_theorem", broken)
    assert main(["verify", "--group", "Z4", "--count", "1"]) == 1
    assert "skewed tolerances" in capsys.readouterr().err


def test_non_ideal_annihilator_raises_contract_error(monkeypatch):
    import harmop.support as support
    from harmop.linalg import LinAlgContractError, Subspace

    t_mat = np.zeros((4, 4))
    t_mat[0, 1] = 1.0
    # a subspace of functions that is not closed under pointwise products
    skew = Subspace.from_span([np.ones(4)])
    monkeypatch.setattr(support, "null_space", lambda mat, tol: skew)
    with pytest.raises(LinAlgContractError):
        support.annihilator_ideal(cyclic_group(4), t_mat)


@pytest.mark.parametrize("command", ["verify", "fuzz", "fixed-points"])
def test_commutant_commands_above_the_cap_exit_two(command, monkeypatch, capsys):
    def no_decomposition(*args, **kwargs):
        raise AssertionError("a commutator stack was decomposed above the cap")

    monkeypatch.setattr(np.linalg, "qr", no_decomposition)
    assert main([command, "--group", "Z25", "--count", "1"]) == 2
    assert "capped at order 24" in capsys.readouterr().err
