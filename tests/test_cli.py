import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from harmop.cli import (
    COMMANDS,
    MU_GENERATORS,
    SIGMA_GENERATORS,
    CheckRecord,
    Report,
    RunConfig,
    build_parser,
    emit,
    main,
    parse_report,
    run,
)
from harmop import generators
from harmop.groups import all_subgroups, cyclic_group, symmetric_group
from harmop.functions import constant_function, function_to_json, indicator_function, measure_to_json
from harmop.functions import GroupFunction, Measure
from harmop.generators import random_positive_definite
from harmop.harmonic import HarmonicReport, verify_main_theorem
from harmop.actions import Superoperator
from harmop.linalg import Subspace
from test_groups import intercalate_swapped


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
    for command in ("explode", "fuzz"):  # fuzz was an alias of verify --sigma gen:nonpd
        with pytest.raises(SystemExit) as err:
            main([command, "--group", "Z4"])
        assert err.value.code == 2


def test_broken_group_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "order": 2}')
    assert main(["verify", "--group", str(path)]) == 2


@pytest.mark.parametrize("text", [
    '{"name": "x", "order": 2, "elements": ["e", "a"], "table": [[false, true], [true, false]]}',
    '{"name": "x", "order": true, "elements": ["e"], "table": [[0]]}',
], ids=["table", "order"])
def test_boolean_group_file_is_input_error(text, tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(text)
    assert main(["verify", "--group", str(path), "--count", "1"]) == 2
    assert "must be" in capsys.readouterr().err


def test_oversized_builtin_group_is_input_error(capsys):
    assert main(["verify", "--group", "Z2000", "--count", "1"]) == 2
    assert "order 2000 exceeds the cap 120" in capsys.readouterr().err


def test_group_file_input(tmp_path, capsys):
    s3 = symmetric_group(3)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(s3.to_json()))
    assert main(["verify", "--group", str(path), "--count", "2"]) == 0


def test_relabeled_group_file_runs_at_order_120(tmp_path, capsys):
    s5 = symmetric_group(5)
    perm = np.random.default_rng(5).permutation(s5.order)  # old -> new
    assert perm[0] != 0  # the identity leaves index 0
    old = np.argsort(perm)
    doc = dict(s5.to_json(), elements=[s5.elements[i] for i in old],
               table=perm[s5.table[np.ix_(old, old)]].tolist())
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(doc))
    assert main(["limit-product", "--group", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


def test_non_associative_group_file_is_input_error(tmp_path, capsys):
    table = intercalate_swapped("D30")  # a loop of order 60
    doc = {"name": "loop", "order": 60, "elements": [str(k) for k in range(60)],
           "table": table.tolist()}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    assert main(["support", "--group", str(path)]) == 2
    assert "associativity fails at" in capsys.readouterr().err


def test_tolerance_echoed(capsys):
    assert main(["verify", "--group", "Z4", "--count", "1", "--tol", "1e-6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["tol"] == 1e-6
    route_checks = [c for c in data["checks"] if c["name"].endswith("three_routes")]
    assert all(c["tolerance"] == 1e-6 for c in route_checks)


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("command", ["verify", "support"])
def test_non_finite_tolerance_is_usage_error(command, tol, capsys):
    assert main([command, "--group", "Z4", "--count", "1", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerances must be positive and finite" in captured.err


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("command", COMMANDS)
def test_count_below_one_is_usage_error(command, count, capsys):
    # a report of no instances checks nothing, so it is refused, not passed
    assert main([command, "--group", "Z4", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--count must be at least 1, got {count}" in captured.err


@pytest.mark.parametrize("tol", [[], ["--tol", "1"]], ids=["default", "tol1"])
def test_support_hull_does_not_move_with_tol(tol, capsys):
    # the hull is read off ||P e_x|| at rank_tol; eq_tol only echoes in the records
    assert main(["support", "--group", "Z4", "--count", "1", *tol]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


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


@pytest.mark.parametrize("command", COMMANDS)
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

    def unaveraged_product(a, b, *args, **kwargs):
        # the product before any averaging: right for constants and for
        # translation combinations, wrong for random f, g under the uniform measure
        if isinstance(a, GroupFunction):
            return GroupFunction(a.group, a.values * b.values)
        return a @ b

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
    # order 24 is SUPEROP_CAP, the largest order of the dense oracles in test_harmonic
    assert main(["ideals", "--group", "S4", "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


def test_verify_runs_at_the_doubled_space_cap(capsys):
    # 30 subgroup commutants and one double commutant at order 24, SUPEROP_CAP
    assert main(["verify", "--group", "S4", "--count", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["passed"] == 32 and summary["failed"] == 0


def test_verify_runs_the_whole_group_as_level_set_at_the_cap(tmp_path, capsys):
    # sigma = 1 makes L = G, so route (B) generates all of M_24: dimension 576
    path = tmp_path / "one.json"
    path.write_text(json.dumps(function_to_json(constant_function(cyclic_group(24)))))
    assert main(["verify", "--group", "Z24", "--sigma", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["failed"] == 0
    assert all(c["passed"] for c in data["checks"])
    assert {c["metric"] for c in data["checks"] if c["name"].endswith("/dimension")} == {0.0}


@pytest.mark.parametrize("group", ["D60", "S5"])
def test_ideals_run_at_order_120(group, capsys):
    # the suite works on n x n masks and one n^3 quotient stack, so it has no cap
    assert main(["ideals", "--group", group, "--count", "1"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(c["passed"] for c in checks)


def test_wrong_operator_limit_product_fails(monkeypatch, capsys):
    import harmop.cli as cli

    original = cli.limit_product

    def reversed_product(a, b, *args, **kwargs):
        # t @ s differs from s @ t for translation combinations on S3
        if isinstance(a, GroupFunction):
            return original(a, b, *args, **kwargs)
        return original(b, a, *args, **kwargs)

    monkeypatch.setattr(cli, "limit_product", reversed_product)
    assert main(["limit-product", "--group", "S3", "--count", "1"]) == 1
    data = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    assert failed == ["limit-product/adapted0/operator_mode"]
    assert data["summary"]["failed"] == 1


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("command, option", [("verify", "--sigma"), ("fixed-points", "--sigma"),
                                             ("ideals", "--sigma"), ("limit-product", "--mu")])
def test_non_finite_input_file_exits_two(command, option, bad, tmp_path, capsys):
    if option == "--sigma":
        doc = {"group": "Z4", "values": [[1.0, 0.0], [bad, 0.0], [1.0, 0.0], [1.0, 0.0]]}
    else:
        doc = {"group": "Z4", "weights": [0.5, bad, 0.5, 0.0]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))  # Infinity / NaN, which json reads back
    assert main([command, "--group", "Z4", option, str(path), "--count", "1"]) == 2
    assert "non-finite at [1]" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, spec", [("verify", "--sigma", "gen:pdd"),
                                                   ("fixed-points", "--mu", "gen:nonadaptive")])
def test_unknown_generator_exits_two_naming_the_generators(command, option, spec, capsys):
    names = SIGMA_GENERATORS if option == "--sigma" else MU_GENERATORS
    assert main([command, "--group", "Z6", option, spec, "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert f"unknown generator {spec!r}" in err and "No such file" not in err
    assert all(name in err for name in names)
    # the --help strings and the README list the same generators
    help_text = build_parser().format_help()
    assert re.findall(r"gen:\w+", help_text) == [*SIGMA_GENERATORS, *MU_GENERATORS]
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    bullet = readme.split(f"* `{option}` takes")[1].split("\n* ")[0]
    assert re.findall(r"`(gen:\w+)`", bullet) == list(names)


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--group", "S3", "--sigma", "gen:delta"], {"delta_e"}),
    (["fixed-points", "--group", "Z4", "--mu", "gen:uniform"], {"uniform"}),
    (["ideals", "--group", "Z4", "--mu", "gen:random"], {"random0", "random1"}),
], ids=["delta", "uniform", "random"])
def test_documented_generators_run(argv, expected, capsys):
    assert main([*argv, "--count", "2"]) == 0
    names = {c["name"].split("/")[1] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert expected <= names


@pytest.mark.parametrize("argv", [["fixed-points", "--group", "D4"], ["ideals", "--group", "S3"],
                                  ["limit-product", "--group", "S3"]], ids=lambda a: a[0])
def test_nonadapted_measures_run_with_a_proper_generated_subgroup(argv, capsys):
    assert main([*argv, "--mu", "gen:nonadapted", "--count", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    names = {c["name"].split("/")[1] for c in checks}
    assert {"nonadapted0", "nonadapted1", "nonadapted2"} <= names
    # a zero harmonic_dim metric says dim = index of <supp mu>, and the
    # degenerate crossed product is checked only at index 1: so index > 1
    dims = [c["metric"] for c in checks if c["name"].endswith("/harmonic_dim")]
    assert dims == ([0.0] * 3 if argv[0] == "fixed-points" else [])
    assert not any(c["name"].endswith("/crossed_product_degenerate") for c in checks)


def test_nonadapted_measures_come_from_one_subgroup_enumeration(monkeypatch, capsys):
    calls = []

    def counted(group):
        calls.append(group.name)
        return all_subgroups(group)

    monkeypatch.setattr(generators, "all_subgroups", counted)
    assert main(["fixed-points", "--group", "S4", "--mu", "gen:nonadapted", "--count", "5"]) == 0
    assert calls == ["S4"]


def test_verdict_is_metric_within_tolerance():
    assert CheckRecord("a", "s", metric=1e-8, tolerance=1e-8).passed
    assert not CheckRecord("a", "s", metric=2e-8, tolerance=1e-8).passed
    assert not CheckRecord("a", "s", metric=float("nan"), tolerance=1e-8).passed
    assert not CheckRecord("a", "s", metric=float("inf"), tolerance=1e300).passed
    with pytest.raises(TypeError):
        CheckRecord("a", "s", passed=True, metric=1.0, tolerance=0.0)


def test_parse_report_rejects_an_edited_verdict():
    data = json.loads(emit(run(RunConfig(command="support", group="Z4", count=2)), "json"))
    data["checks"][0]["passed"] = not data["checks"][0]["passed"]
    with pytest.raises(ValueError, match=data["checks"][0]["name"]):
        parse_report(json.dumps(data))


def _drop_one_basis_vector(function):
    def short(*args, **kwargs):
        space = function(*args, **kwargs)
        return Subspace(space.ambient_dim, space.basis[:, 1:])
    return short


def test_willis_dimension_mismatch_fails_with_inf_metric(monkeypatch, capsys):
    import harmop.cli as cli

    monkeypatch.setattr(cli, "willis_ideal", _drop_one_basis_vector(cli.willis_ideal))
    assert main(["ideals", "--group", "S3", "--count", "1"]) == 1
    out = capsys.readouterr().out
    data = json.loads(out)
    json.dumps(data, allow_nan=False)  # strict JSON: no bare Infinity or NaN
    failed = [c for c in data["checks"] if not c["passed"]]
    assert [(c["name"], c["metric"], c["metric_nonfinite"]) for c in failed] == [
        ("ideals/adapted0/willis", None, "inf")]
    assert all("metric_nonfinite" not in c for c in data["checks"] if c["passed"])
    report = parse_report(out)
    assert [(c.name, c.metric) for c in report.checks if not c.passed] == [
        ("ideals/adapted0/willis", np.inf)]
    assert emit(report, "json") + "\n" == out


def test_commutant_dimension_mismatch_fails_with_inf_metric(monkeypatch, capsys):
    import harmop.harmonic as harmonic

    monkeypatch.setattr(harmonic, "commutant", _drop_one_basis_vector(harmonic.commutant))
    assert main(["verify", "--group", "Z4", "--count", "1"]) == 1
    checks = parse_report(capsys.readouterr().out).checks
    identities = [c for c in checks if c.name.endswith("commutant_identity")]
    assert len(identities) == 3  # the subgroups of Z4
    assert all(not c.passed and c.metric == np.inf for c in identities)
    assert all(c.passed for c in checks if c not in identities)


def test_nan_route_distance_fails_verify(monkeypatch, capsys):
    import dataclasses
    import harmop.cli as cli

    original = cli.verify_main_theorem

    def nan_last(*args, **kwargs):
        report = original(*args, **kwargs)
        *keys, last = report.distances
        distances = {**{k: 0.0 for k in keys}, last: float("nan")}
        return dataclasses.replace(report, distances=distances)

    monkeypatch.setattr(cli, "verify_main_theorem", nan_last)
    assert main(["verify", "--group", "Z4", "--count", "1"]) == 1
    out = capsys.readouterr().out
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert [(c["name"], c["metric"], c["metric_nonfinite"]) for c in failed] == [
        ("verify/pd0/three_routes", None, "nan")]
    assert [c.name for c in parse_report(out).checks if np.isnan(c.metric)] == [
        "verify/pd0/three_routes"]
    assert not nan_last(random_positive_definite(cyclic_group(4), np.random.default_rng(0))).passed


def _harmonic_report(dims, distances, expected_dim=2):
    return HarmonicReport(p1_mode=True, level_set=(0,), dims=dims, expected_dim=expected_dim,
                          distances=distances, eq_tol=1e-8)


def test_harmonic_report_verdict_reads_distance_and_dimension_defect():
    dims = {"fixed_points": 2, "generated_algebra": 2, "stripe_span": 2}
    distances = {"fixed_vs_algebra": 1e-9, "fixed_vs_stripe": 0.0}
    report = _harmonic_report(dims, distances)
    assert report.passed and report.distance == 1e-9 and report.dimension_defect == 0.0
    nan = _harmonic_report(dims, {**distances, "fixed_vs_stripe": float("nan")})
    assert np.isnan(nan.distance) and not nan.passed
    off_by_one = _harmonic_report({**dims, "stripe_span": 3}, distances)
    assert off_by_one.dimension_defect == 1.0 and not off_by_one.passed
    assert _harmonic_report({**dims, "stripe_span": 3}, distances, expected_dim=None).passed


def test_one_psd_test_per_sigma(monkeypatch, capsys):
    import harmop.functions as functions

    sigma = random_positive_definite(symmetric_group(3), np.random.default_rng(0))
    calls = []
    original = functions.psd_eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(functions, "psd_eigh", counting)
    assert verify_main_theorem(sigma).passed
    assert len(calls) == 1
    calls.clear()
    assert main(["ideals", "--group", "S4", "--count", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_check_record_fields():
    report = run(RunConfig(command="verify", group="Z4", count=1))
    for check in report.checks:
        assert isinstance(check, CheckRecord)
        assert check.name and check.statement
        assert isinstance(check.metric, float)


SIGNATURE_GROUPS = ("Z6", "S3")
SIGNATURE_KEYS = (*COMMANDS, "verify --sigma gen:nonpd")
SIGNATURES = Path(__file__).parent / "data" / "cli_signatures.json"


def _fixed_seed_report(key: str, group: str) -> Report:
    args = build_parser().parse_args([*key.split(), "--group", group, "--count", "2", "--seed", "0"])
    return run(RunConfig(**vars(args)))


def _signature(report: Report) -> list[dict]:
    """Check names, verdicts and, for exact checks (tolerance 0), the integer
    metric of a fixed-seed report; a refactor must leave these unchanged."""
    out = []
    for c in report.checks:
        entry = {"name": c.name, "passed": c.passed}
        if c.tolerance == 0:
            entry["metric"] = int(c.metric)
        out.append(entry)
    return out


@pytest.mark.parametrize("group", SIGNATURE_GROUPS)
@pytest.mark.parametrize("key", SIGNATURE_KEYS,
                         ids=lambda key: key.replace(" --sigma gen:", "-"))
def test_fixed_seed_report_signature(key, group):
    expected = json.loads(SIGNATURES.read_text())[group][key]
    report = _fixed_seed_report(key, group)
    assert _signature(report) == expected
    # every toleranced metric keeps a wide margin (the largest is about 1e-14),
    # so a comparison that loses precision fails here before a verdict flips
    loose = [(c.name, c.metric) for c in report.checks
             if c.tolerance > 0 and not (math.isfinite(c.metric) and c.metric <= 1e-12)]
    assert loose == []


def test_nonpd_verify_runs_the_three_routes_once_per_sigma(monkeypatch):
    import harmop.cli as cli

    calls = []
    original = cli.verify_main_theorem

    def counting(sigma, tol):
        calls.append(sigma.values.tobytes())
        return original(sigma, tol)

    monkeypatch.setattr(cli, "verify_main_theorem", counting)
    report = run(RunConfig(command="verify", group="S3", sigma="gen:nonpd", count=3, seed=0))
    sigmas = cli._resolve_sigmas("gen:nonpd", symmetric_group(3), 3, np.random.default_rng(0))
    assert calls == [sigma.values.tobytes() for _, sigma in sigmas]
    assert len(set(calls)) == 3
    assert report.passed


@pytest.mark.parametrize("command", ["ideals", "verify"])
def test_sigma_between_eq_tol_and_the_rank_cutoff_exits_one(command, tmp_path, capsys):
    # positive definite, and |sigma(x) - 1| is 3.5e-9 to 5e-9 off e: inside
    # the default eq_tol (1e-8) and outside the rank cutoff (1e-9)
    t = 2.5e-9
    sigma = GroupFunction(cyclic_group(4), (1 - t) + t * 1j ** np.arange(4))
    path = tmp_path / "band.json"
    path.write_text(json.dumps(function_to_json(sigma)))
    argv = [command, "--group", "Z4", "--sigma", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "sigma(1)" in err and "eq_tol=1e-08" in err and "rank cutoff 1e-09" in err
    assert main(argv + ["--tol", "1e-10"]) == 0


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


@pytest.mark.parametrize("command", ["fixed-points", "verify"])
def test_fixed_point_commands_form_no_dense_superoperator(command, monkeypatch, capsys):
    """Fixed points and pre-annihilators are found stripe by stripe, so
    neither command materializes an n^2 x n^2 superoperator."""
    def refuse(self):
        raise AssertionError("a dense superoperator was formed")

    monkeypatch.setattr(Superoperator, "dense", refuse)
    assert main([command, "--group", "S4", "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


@pytest.mark.parametrize("command", ["verify", "fixed-points"])
def test_commutant_commands_above_the_cap_exit_two(command, monkeypatch, capsys):
    def no_decomposition(*args, **kwargs):
        raise AssertionError("a commutator stack was decomposed above the cap")

    monkeypatch.setattr(np.linalg, "qr", no_decomposition)
    assert main([command, "--group", "Z25", "--count", "1"]) == 2
    assert "capped at order 24" in capsys.readouterr().err
