"""Batch driver: load inputs, run verification suites, emit reports.

Exit codes: 0 all checks passed, 1 at least one check failed or a numerical
contract broke, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .groups import (
    GroupTable,
    GroupTableError,
    SchemaError,
    all_subgroups,
    builtin_group,
    generated_subgroup,
    parse_group,
)
from .functions import (
    GroupFunction,
    Measure,
    ToleranceMisconfiguration,
    constant_function,
    delta_function,
    function_from_json,
    in_p1,
    level_set_one,
    measure_from_json,
    uniform_measure,
)
from .linalg import LinAlgContractError, Tolerances, double_commutant, projector_distance
from .actions import left_regular, mult_op, theta, theta_hat
from .support import annihilator_ideal, operator_support
from .harmonic import (
    HarmonicReport,
    fixed_points,
    harmonic_functions,
    invariant_algebra,
    limit_product,
    linfty_perp_suite,
    pre_annihilator_ideal,
    verify_main_theorem,
    willis_ideal,
)
from .generators import (
    random_adapted_measure,
    random_positive_definite,
    random_probability_measure,
    random_sparse_operator,
    random_translation_combination,
    random_unit_at_identity,
)

COMMANDS = ("verify", "support", "fixed-points", "ideals", "limit-product", "fuzz")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    statement: str
    passed: bool
    metric: float
    tolerance: float


@dataclass(frozen=True)
class RunConfig:
    command: str
    group: str
    sigma: str = "gen:pd"
    mu: str = "gen:adapted"
    count: int = 5
    tol: float = 1e-8
    seed: int = 0
    format: str = "json"

    def tolerances(self) -> Tolerances:
        return Tolerances(eq_tol=self.tol)


@dataclass(frozen=True)
class Report:
    config: dict
    checks: list[CheckRecord]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}


def _resolve_group(spec: str) -> GroupTable:
    path = Path(spec)
    if spec.endswith(".json") or path.is_file():
        return parse_group(path.read_text())
    return builtin_group(spec)


def _resolve_sigmas(spec: str, group: GroupTable, count: int,
                    rng: np.random.Generator, tol: Tolerances) -> list[tuple[str, GroupFunction]]:
    if spec == "gen:pd":
        return [(f"pd{i}", random_positive_definite(group, rng)) for i in range(count)]
    if spec == "gen:nonpd":
        out = []
        for i in range(count):
            if i % 2 == 0:
                out.append((f"nonpd{i}", random_unit_at_identity(group, rng)))
            else:
                size = int(rng.integers(1, group.order + 1))
                level = set(int(x) for x in rng.choice(group.order, size=size, replace=False))
                level.add(group.identity)
                out.append((f"nonpd{i}", random_unit_at_identity(group, rng, sorted(level))))
        return out
    if spec == "gen:delta":
        return [("delta_e", delta_function(group, group.identity))]
    doc = json.loads(Path(spec).read_text())
    return [(Path(spec).stem, function_from_json(doc, group))]


def _resolve_mus(spec: str, group: GroupTable, count: int,
                 rng: np.random.Generator) -> list[tuple[str, Measure]]:
    if spec == "gen:adapted":
        return [(f"adapted{i}", random_adapted_measure(group, rng)) for i in range(count)]
    if spec == "gen:uniform":
        return [("uniform", uniform_measure(group))]
    if spec == "gen:random":
        return [(f"random{i}", random_probability_measure(group, rng)) for i in range(count)]
    doc = json.loads(Path(spec).read_text())
    return [(Path(spec).stem, measure_from_json(doc, group))]


# ---------------------------------------------------------------------------
# suites

def _suite_verify(group: GroupTable, sigmas,
                  tol: Tolerances) -> tuple[list[CheckRecord], list[HarmonicReport]]:
    """The verify checks, and the three-route report of each sigma."""
    checks = []
    reports = []
    for k, sub in enumerate(all_subgroups(group)):
        report = invariant_algebra(sub, tol)
        checks.append(CheckRecord(
            name=f"verify/subgroup{k}(order {len(sub)})/commutant_identity",
            statement="the commutant of the subgroup translations together with the "
                      "diagonal is the functions constant on subgroup orbits",
            passed=report.passed,
            metric=report.distance,
            tolerance=tol.eq_tol,
        ))
    for name, sigma in sigmas:
        report = verify_main_theorem(sigma, tol, parameter=name)
        reports.append(report)
        if report.p1_mode:
            dims = set(report.dims.values())
            checks.append(CheckRecord(
                name=f"verify/{name}/dimension",
                statement="dim of the harmonic-operator algebra is |G| * |level set| on all three routes",
                passed=dims == {report.expected_dim},
                metric=float(max(abs(d - report.expected_dim) for d in report.dims.values())),
                tolerance=0.0,
            ))
            metric = max(report.distances.values())
            checks.append(CheckRecord(
                name=f"verify/{name}/three_routes",
                statement="fixed points of the multiplier action = algebra generated by "
                          "level-set translations and the diagonal = level-set stripe span",
                passed=metric <= tol.eq_tol,
                metric=float(metric),
                tolerance=tol.eq_tol,
            ))
        else:
            checks.append(CheckRecord(
                name=f"verify/{name}/inclusions",
                statement="bimodule span of level-set translations sits inside the fixed "
                          "points, which sit inside the level-set stripe span",
                passed=max(report.distances.values()) <= tol.eq_tol,
                metric=float(max(report.distances.values())),
                tolerance=tol.eq_tol,
            ))
    return checks, reports


def _suite_support(group: GroupTable, count: int, rng: np.random.Generator,
                   tol: Tolerances) -> list[CheckRecord]:
    checks = []
    n = group.order
    hull_bad = 0
    law_bad = 0.0
    for _ in range(count):
        t_mat = random_sparse_operator(group, rng)
        supp = set(operator_support(group, t_mat, tol))
        _, hull = annihilator_ideal(group, t_mat, tol)
        hull_bad += int(set(hull) != supp)
        values = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        phi = GroupFunction(group, values * (rng.random(n) < 0.5))
        masked = theta_hat(phi).apply(t_mat)
        supp_masked = set(operator_support(group, masked, tol))
        supp_phi = set(int(x) for x in np.flatnonzero(np.abs(phi.values) > tol.entry_tol))
        law_bad += len(supp_masked - (supp_phi & supp))
    checks.append(CheckRecord(
        name="support/hull_duality",
        statement="hull of the annihilator ideal equals the displacement support, exactly",
        passed=hull_bad == 0, metric=float(hull_bad), tolerance=0.0,
    ))
    checks.append(CheckRecord(
        name="support/product_law",
        statement="supp of the masked operator is contained in supp(phi) ∩ supp(T)",
        passed=law_bad == 0, metric=float(law_bad), tolerance=0.0,
    ))
    mult_bad = 0
    for _ in range(count):
        f = GroupFunction(group, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        supp = tuple(operator_support(group, mult_op(f), tol))
        mult_bad += int(supp != (group.identity,))
    lam_bad = sum(
        int(tuple(operator_support(group, left_regular(group, x), tol)) != (x,))
        for x in range(group.order)
    )
    checks.append(CheckRecord(
        name="support/multiplication_operators",
        statement="supp M_f = {e} for nonzero f",
        passed=mult_bad == 0, metric=float(mult_bad), tolerance=0.0,
    ))
    checks.append(CheckRecord(
        name="support/translations",
        statement="supp lambda(x) = {x}",
        passed=lam_bad == 0, metric=float(lam_bad), tolerance=0.0,
    ))
    zero_ok = len(operator_support(group, np.zeros((group.order, group.order)), tol)) == 0
    checks.append(CheckRecord(
        name="support/empty_iff_zero",
        statement="supp T is empty iff T vanishes at the entry tolerance",
        passed=zero_ok, metric=0.0 if zero_ok else 1.0, tolerance=0.0,
    ))
    return checks


def _suite_fixed_points(group: GroupTable, mus, sigmas, tol: Tolerances) -> list[CheckRecord]:
    checks = []
    n = group.order

    def duality(name: str, phi, fixed) -> CheckRecord:
        ideal = pre_annihilator_ideal(phi, tol)
        return CheckRecord(
            name=f"fixed-points/{name}/duality_dims",
            statement="fixed points and pre-annihilator have complementary dimensions",
            passed=fixed.dim + ideal.dim == n * n,
            metric=float(abs(fixed.dim + ideal.dim - n * n)), tolerance=0.0,
        )

    vn = double_commutant([left_regular(group, x) for x in range(n)], n, tol)
    for name, mu in mus:
        space = harmonic_functions(mu, tol)
        index = n // len(generated_subgroup(group, mu.support(tol)))
        checks.append(CheckRecord(
            name=f"fixed-points/{name}/harmonic_dim",
            statement="dim of harmonic functions = index of the subgroup generated by supp(mu)",
            passed=space.dim == index, metric=float(abs(space.dim - index)), tolerance=0.0,
        ))
        action = theta(mu)
        fixed = fixed_points(action, tol)
        if index == 1:
            dist = projector_distance(fixed, vn)
            checks.append(CheckRecord(
                name=f"fixed-points/{name}/crossed_product_degenerate",
                statement="Fix of the convolution action = algebra of left translations, "
                          "for adapted mu",
                passed=dist <= tol.eq_tol, metric=dist, tolerance=tol.eq_tol,
            ))
        checks.append(duality(name, action, fixed))
    for name, sigma in sigmas:
        action = theta_hat(sigma)
        checks.append(duality(name, action, fixed_points(action, tol)))
    return checks


def _suite_ideals(group: GroupTable, sigmas, mus, tol: Tolerances) -> list[CheckRecord]:
    checks = []
    n = group.order
    for name, sigma in sigmas:
        report = linfty_perp_suite(sigma, tol)
        checks.append(CheckRecord(
            name=f"ideals/{name}/suite",
            statement="pre-annihilator orthogonality, the inclusion chain into the "
                      "traceless elements, predual-product closure, and the diagonal "
                      "quotient product all hold",
            passed=report.passed,
            metric=report.worst_residual,
            tolerance=tol.eq_tol,
        ))
        if in_p1(sigma, tol):
            expected = n * n - n * len(level_set_one(sigma, tol))
            checks.append(CheckRecord(
                name=f"ideals/{name}/dimension",
                statement="dim of the pre-annihilator ideal = |G|^2 - |G| * |level set|",
                passed=report.dim_ideal == expected,
                metric=float(abs(report.dim_ideal - expected)), tolerance=0.0,
            ))
    for name, mu in mus:
        ideal = willis_ideal(mu, tol)
        space = harmonic_functions(mu, tol)
        pair = ideal.basis.T @ space.basis.conj()  # bilinear pairing sum f(x) phi(x)
        metric = float(np.abs(pair).max()) if pair.size else 0.0
        checks.append(CheckRecord(
            name=f"ideals/{name}/willis",
            statement="the ideal of increments f - f*mu annihilates the harmonic "
                      "functions and has complementary dimension",
            passed=metric <= tol.eq_tol and ideal.dim + space.dim == n,
            metric=metric, tolerance=tol.eq_tol,
        ))
    return checks


def _suite_limit_product(group: GroupTable, mus, tol: Tolerances,
                         rng: np.random.Generator) -> list[CheckRecord]:
    checks = []
    for name, mu in mus:
        c, d = rng.standard_normal(2)
        limit = limit_product("function", constant_function(group, c),
                              constant_function(group, d), mu, tol)
        metric = float(np.abs(limit.values - c * d).max())
        checks.append(CheckRecord(
            name=f"limit-product/{name}/constants",
            statement="the ergodic limit of the product of two constant functions is "
                      "the product of the constants",
            passed=metric <= tol.eq_tol, metric=metric, tolerance=tol.eq_tol,
        ))
        s_mat = random_translation_combination(group, rng)
        t_mat = random_translation_combination(group, rng)
        metric = float(np.abs(limit_product("operator", s_mat, t_mat, mu, tol)
                              - s_mat @ t_mat).max())
        checks.append(CheckRecord(
            name=f"limit-product/{name}/operator_mode",
            statement="the operator-mode ergodic limit of the product of two translation "
                      "combinations, which every Theta(mu) fixes, is their plain product",
            passed=metric <= tol.eq_tol, metric=metric, tolerance=tol.eq_tol,
        ))
    f = GroupFunction(group, rng.standard_normal(group.order))
    g_fn = GroupFunction(group, rng.standard_normal(group.order))
    # random f, g on purpose: the uniform measure's harmonic functions are constants
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".* factor is not harmonic", UserWarning)
        limit = limit_product("function", f, g_fn, uniform_measure(group), tol)
    metric = float(np.abs(limit.values - np.mean(f.values * g_fn.values)).max())
    checks.append(CheckRecord(
        name="limit-product/uniform/mean",
        statement="the ergodic limit under the uniform measure is the mean of f*g",
        passed=metric <= tol.eq_tol, metric=metric, tolerance=tol.eq_tol,
    ))
    return checks


def _suite_fuzz(group: GroupTable, sigmas, tol: Tolerances) -> list[CheckRecord]:
    checks, reports = _suite_verify(group, sigmas, tol)
    strict = sum(
        int(r.dims["fixed_points"] < r.dims.get("stripe_span", r.dims["fixed_points"]))
        for r in reports
    )
    checks.append(CheckRecord(
        name="fuzz/strict_inclusion_candidates",
        statement="candidate sigmas where the fixed points sit strictly inside the "
                  "level-set stripe span (none are expected on finite groups)",
        passed=strict == 0, metric=float(strict), tolerance=0.0,
    ))
    return checks


def run(config: RunConfig) -> Report:
    start = time.perf_counter()
    tol = config.tolerances()
    rng = np.random.default_rng(config.seed)
    group = _resolve_group(config.group)
    checks: list[CheckRecord]
    if config.command == "verify":
        sigmas = _resolve_sigmas(config.sigma, group, config.count, rng, tol)
        checks, _ = _suite_verify(group, sigmas, tol)
    elif config.command == "support":
        checks = _suite_support(group, max(config.count, 1), rng, tol)
    elif config.command == "fixed-points":
        mus = _resolve_mus(config.mu, group, config.count, rng)
        sigmas = _resolve_sigmas(config.sigma, group, config.count, rng, tol)
        checks = _suite_fixed_points(group, mus, sigmas, tol)
    elif config.command == "ideals":
        sigmas = _resolve_sigmas(config.sigma, group, config.count, rng, tol)
        mus = _resolve_mus(config.mu, group, config.count, rng)
        checks = _suite_ideals(group, sigmas, mus, tol)
    elif config.command == "limit-product":
        mus = _resolve_mus(config.mu, group, config.count, rng)
        checks = _suite_limit_product(group, mus, tol, rng)
    elif config.command == "fuzz":
        sigmas = _resolve_sigmas("gen:nonpd", group, config.count, rng, tol)
        checks = _suite_fuzz(group, sigmas, tol)
    else:
        raise ValueError(f"unknown command {config.command!r}")
    checks.sort(key=lambda c: c.name)
    wall = time.perf_counter() - start
    return Report(config=asdict(config), checks=checks, wall_time_s=wall)


def emit(report: Report, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "config": report.config,
            "checks": [asdict(c) for c in report.checks],
            "summary": report.summary,
            "wall_time_s": report.wall_time_s,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "markdown":
        lines = [f"# harmop {report.config['command']} report", ""]
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(report.config.items()))
        lines.append(f"config: {cfg}")
        lines.append("")
        lines.append("| check | statement | metric | tolerance | pass |")
        lines.append("|---|---|---|---|---|")
        for c in report.checks:
            lines.append(
                f"| {c.name} | {c.statement} | {c.metric:.3e} | {c.tolerance:.3e} | "
                f"{'yes' if c.passed else 'NO'} |"
            )
        s = report.summary
        lines.append("")
        lines.append(f"summary: {s['passed']}/{s['total']} passed "
                     f"({report.wall_time_s:.2f}s)")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def parse_report(text: str) -> Report:
    """Inverse of emit(..., 'json')."""
    data = json.loads(text)
    return Report(
        config=data["config"],
        checks=[CheckRecord(**c) for c in data["checks"]],
        wall_time_s=data["wall_time_s"],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmop",
        description="verification suites for harmonic operators on finite groups",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--group", required=True,
                        help="builtin name (Z6, D4, S3, Q8, Z2xZ4, ...) or JSON file")
    parser.add_argument("--sigma", default="gen:pd",
                        help="function file, gen:pd, gen:nonpd, or gen:delta")
    parser.add_argument("--mu", default="gen:adapted",
                        help="measure file, gen:adapted, gen:uniform, or gen:random")
    parser.add_argument("--count", type=int, default=5,
                        help="number of generated random instances")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="equality tolerance echoed in every record")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "markdown"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        report = run(config)
    except (LinAlgContractError, ToleranceMisconfiguration) as exc:
        # a broken numerical contract is a failed check, not bad input
        print(f"harmop: check failed: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, GroupTableError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"harmop: error: {exc}", file=sys.stderr)
        return 2
    print(emit(report, config.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
