"""The benchmark's workloads: each builds a fixed list of operations from a seed.

An operation is one call that produces a verdict: ``harmop.cli.main(argv)``
with its output captured, or a public library verifier call.  ``run`` makes
the call and is timed; ``check`` turns its result into ``(passed, signature)``
against a closed-form expectation, using numpy and the group tables only, so
a traced pass records nothing but the operation's own work.  The signature
holds check names, verdicts and integer dimensions, never floats, so it is
the same on every pass and feeds the recorded digest.

All harmop functions are looked up on their module at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from harmop import actions, cli, functions, generators, groups, harmonic, support

DEFAULT_SEED = 0
TOL = 1e-8


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]


# ---------------------------------------------------------------------------
# references computed by the benchmark itself

def closure(group, gens) -> np.ndarray:
    """Sorted members of the subgroup generated by ``gens``, by breadth-first
    right multiplication on the Cayley table."""
    members = np.zeros(group.order, dtype=bool)
    members[0] = True
    gens = np.array(sorted({0, *(int(x) for x in gens)}), dtype=np.intp)
    while True:
        grown = members.copy()
        grown[group.table[np.ix_(np.flatnonzero(members), gens)].ravel()] = True
        if np.array_equal(grown, members):
            return np.flatnonzero(members)
        members = grown


def level_set(values) -> tuple[int, ...]:
    return tuple(int(x) for x in np.flatnonzero(np.abs(values - 1.0) <= TOL))


def displacement_support(group, t_mat) -> tuple[int, ...]:
    disp = group.table[:, group.inverse]
    return tuple(int(x) for x in np.unique(disp[np.abs(t_mat) > 1e-10]))


def translation_projector(group) -> np.ndarray:
    """Projector onto span{vec lambda(x)}: the vectors are orthogonal
    permutation matrices of norm sqrt(n)."""
    n = group.order
    vecs = np.zeros((n, n * n))
    for x in range(n):
        vecs[x, group.table[x] * n + np.arange(n)] = 1.0
    return vecs.T @ vecs / n


def _agree(a, b) -> bool:
    return float(np.abs(a - b).max()) <= TOL * max(1.0, float(np.abs(b).max()))


# ---------------------------------------------------------------------------
# operations

def cli_op(argv: list[str]) -> Op:
    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        report = json.loads(text)
        checks = report["checks"]
        sig = [[c["name"], c["passed"], int(c["metric"]) if c["tolerance"] == 0 else None]
               for c in checks]
        ok = (code == 0 and bool(checks) and report["summary"]["failed"] == 0
              and all(c["passed"] for c in checks))
        return ok, sig

    return Op("cli " + " ".join(argv[:3]), run, check)


def invariant_op(sub) -> Op:
    index = sub.parent.order // len(sub)

    def check(rep):
        sig = [rep.passed, rep.orbit_count, rep.dim_invariant, rep.dim_commutant]
        return rep.passed and rep.orbit_count == rep.dim_commutant == index, sig

    return Op(f"invariant_algebra {sub.parent.name} |H|={len(sub)}",
              lambda: harmonic.invariant_algebra(sub), check)


def main_theorem_op(group, sigma) -> Op:
    level = level_set(sigma.values)
    n = group.order

    def check(rep):
        sig = [rep.passed, rep.p1_mode, sorted(rep.dims.items()), list(rep.level_set)]
        ok = rep.passed and rep.level_set == level and rep.dims["stripe_span"] == n * len(level)
        if rep.p1_mode:
            ok = ok and set(rep.dims.values()) == {n * len(level)}
        return ok, sig

    return Op(f"verify_main_theorem {group.name}",
              lambda: harmonic.verify_main_theorem(sigma), check)


def translation_fixed_op(group, mu, vn_projector) -> Op:
    def check(space):
        proj = space.basis @ space.basis.conj().T
        dist = float(np.linalg.norm(proj - vn_projector))
        return space.dim == group.order and dist <= TOL, [space.dim]

    return Op(f"fixed_points(theta) {group.name}",
              lambda: harmonic.fixed_points(actions.theta(mu)), check)


def annihilator_op(group, t_mat) -> Op:
    supp = displacement_support(group, t_mat)

    def check(result):
        ideal, hull = result
        ok = tuple(hull.members) == supp and ideal.dim == group.order - len(supp)
        return ok, [ideal.dim, list(hull.members)]

    return Op(f"annihilator_ideal {group.name}",
              lambda: support.annihilator_ideal(group, t_mat), check)


def ideal_suite_op(group, sigma) -> Op:
    n = group.order
    level = level_set(sigma.values)

    def check(rep):
        sig = [rep.passed, rep.dim_ideal, rep.dim_fixed, rep.dim_linfty_perp, rep.dim_traceless]
        ok = (rep.passed and rep.dim_ideal + rep.dim_fixed == n * n
              and rep.dim_ideal == n * n - n * len(level))
        return ok, sig

    return Op(f"linfty_perp_suite {group.name}",
              lambda: harmonic.linfty_perp_suite(sigma), check)


def bullet_op(group, omega, rho_mat) -> Op:
    def run():
        return (actions.bullet(group, omega, rho_mat),
                actions.bullet_via_comultiplication(group, omega, rho_mat))

    return Op(f"bullet {group.name}", run,
              lambda pair: (_agree(*pair), [group.order]))


def module_action_op(group, omega, t_mat) -> Op:
    def run():
        return (actions.module_action(group, "right", omega, t_mat),
                actions.theta_hat(actions.pi_quotient(group, omega)).apply(t_mat))

    return Op(f"module_action {group.name}", run,
              lambda pair: (_agree(*pair), [group.order]))


def coassociativity_op(group, t_mat) -> Op:
    scale = max(1.0, float(np.abs(t_mat).max()))
    return Op(f"coassociativity_defect {group.name}",
              lambda: actions.coassociativity_defect(group, t_mat),
              lambda defect: (defect <= 1e-10 * scale, [group.order]))


# number of subgroups, from the classification: D_m has tau(m) + sigma(m),
# Z_m has tau(m), and a product of groups of coprime orders multiplies the counts
SUBGROUP_COUNTS = {"D11": 14, "Z2xZ12": 16, "D12": 34, "Z2xZ2xZ6": 32, "S4": 30,
                   "Z2xZ20": 16, "Z60": 12, "D20": 48}


def all_subgroups_op(group) -> Op:
    expected = SUBGROUP_COUNTS[group.name]

    def check(subs):
        orders = sorted(len(s) for s in subs)
        ok = (len(subs) == expected and orders[0] == 1 and orders[-1] == group.order
              and all(group.order % k == 0 for k in orders))
        return ok, [len(subs), orders]

    return Op(f"all_subgroups {group.name}", lambda: groups.all_subgroups(group), check)


def choquet_deny_op(group, mu) -> Op:
    """harmonic_functions(mu).dim must be the index of the subgroup that
    supp mu generates."""
    size = len(closure(group, np.flatnonzero(mu.weights)))

    def run():
        return (harmonic.harmonic_functions(mu).dim,
                len(groups.generated_subgroup(group, mu.support())))

    def check(result):
        dim, generated = result
        return dim == group.order // size and generated == size, [dim, generated]

    return Op(f"choquet_deny {group.name}", run, check)


def adaptedness_op(group, mu) -> Op:
    adapted = len(closure(group, np.flatnonzero(mu.weights))) == group.order

    def check(rep):
        sig = [rep.measure_side, rep.transform_side, len(rep.unit_characters)]
        return rep.agree and rep.measure_side == adapted, sig

    return Op(f"adaptedness {group.name}",
              lambda: functions.check_adaptedness_equivalence(mu), check)


# ---------------------------------------------------------------------------
# inputs

def _measure_on(group, points, rng):
    w = np.zeros(group.order)
    w[points] = rng.uniform(0.1, 1.0, size=len(points))
    return functions.Measure(group, w / w.sum())


# generators of the whole group and of one proper subgroup, by element index
# (Z_m: k; D_m: rotation r, reflection m + r; products: row-major pairs)
SUBGROUP_GENERATORS = {
    "Z12": ([1], [2]), "Z60": ([1], [2]), "Z120": ([1], [2]),
    "D20": ([1, 20], [1]), "D60": ([1, 60], [1]),
    "Z2xZ2xZ6": ([12, 6, 1], [1]), "Z2xZ20": ([20, 1], [1]), "Z2xZ30": ([30, 1], [1]),
}


def _generating_measure(group, gens, rng):
    """Support: ``gens`` plus three random members of the subgroup they
    generate, so every seed hits a subgroup of the same size."""
    members = closure(group, gens)
    extra = rng.choice(members, size=min(3, len(members)), replace=False)
    return _measure_on(group, sorted({*gens, *(int(x) for x in extra)}), rng)


def _lattice_measures(group, count, rng):
    full, proper = SUBGROUP_GENERATORS[group.name]
    return [_generating_measure(group, (full, proper)[k % 2], rng) for k in range(count)]


def _cli_seed(rng) -> str:
    return str(int(rng.integers(0, 2 ** 31)))


# ---------------------------------------------------------------------------
# workloads
#
# Each workload mixes its operations in tiers of similar cost so that the
# median and the 90th percentile of operation latency each fall inside a
# block of like operations, not on the edge between two kinds: the comments
# give each tier's share of the batch.

ZOO = ("Z6", "Z2xZ4", "S3", "D4", "Q8")


def commutant_zoo(rng, out_dir: Path) -> list[Op]:
    """Tall commutator stacks through null_space."""
    zoo = {name: groups.builtin_group(name) for name in ZOO}
    ops = []
    # bottom 32%: square null spaces of the convolution action
    for group in zoo.values():
        vn = translation_projector(group)
        ops.extend(translation_fixed_op(group, generators.random_adapted_measure(group, rng), vn)
                   for _ in range(7))
    # around the median, 36%: three routes on S3 (double commutant of 12 generators)
    s3 = zoo["S3"]
    ops.extend(main_theorem_op(s3, generators.random_positive_definite(s3, rng))
               for _ in range(40))
    # 70-83%: commutants of every subgroup of Z6 and S3, order-6 CLI reports
    for name in ("Z6", "S3"):
        ops.extend(invariant_op(sub) for sub in groups.all_subgroups(zoo[name]))
        for sigma in ("gen:pd", "gen:nonpd"):
            ops.append(cli_op(["verify", "--group", name, "--sigma", sigma,
                               "--count", "1", "--seed", _cli_seed(rng)]))
    for name in ZOO:
        ops.append(cli_op(["fixed-points", "--group", name, "--count", "1",
                           "--seed", _cli_seed(rng)]))
    # around the 90th percentile, 13%: three routes on Q8
    q8 = zoo["Q8"]
    ops.extend(main_theorem_op(q8, generators.random_positive_definite(q8, rng))
               for _ in range(14))
    # top 3%: order-8 verify reports and the order-60 annihilator hull
    ops.append(cli_op(["verify", "--group", "Z2xZ4", "--sigma", "gen:pd",
                       "--count", "1", "--seed", _cli_seed(rng)]))
    ops.append(cli_op(["verify", "--group", "Q8", "--sigma", "gen:nonpd",
                       "--count", "1", "--seed", _cli_seed(rng)]))
    d30 = groups.builtin_group("D30")
    ops.append(annihilator_op(d30, generators.random_sparse_operator(d30, rng)))
    return ops


def predual_ideals(rng, out_dir: Path) -> list[Op]:
    """Superoperators, pre-adjoints and comultiplications; square decompositions."""
    ops = []
    small = {name: groups.builtin_group(name) for name in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5",
                                                             "Z6", "S3", "D4", "Q8", "Z12", "D6")}
    # bottom 39%: coassociativity, module actions, order <= 8 predual products
    for name in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3"):
        ops.extend(coassociativity_op(small[name], generators.random_operator(small[name], rng))
                   for _ in range(2))
    for name in ("Z6", "S3", "D4", "Q8", "Z12", "D6"):
        group = small[name]
        for _ in range(3):
            ops.append(module_action_op(group, generators.random_operator(group, rng),
                                        generators.random_operator(group, rng)))
    for name in ("Z6", "S3", "D4", "Q8"):
        group = small[name]
        for _ in range(2):
            ops.append(bullet_op(group, generators.random_operator(group, rng),
                                 generators.random_operator(group, rng)))
    # around the median, 37%: the ideal suite on D4
    d4 = small["D4"]
    ops.extend(ideal_suite_op(d4, generators.random_positive_definite(d4, rng))
               for _ in range(40))
    # 76-83%: support reports at orders 8-12, order-12 predual products
    for name in ("D4", "Q8", "Z2xZ4", "Z12", "D6", "Z2xZ6"):
        ops.append(cli_op(["support", "--group", name, "--count", "20",
                           "--seed", _cli_seed(rng)]))
    for name in ("Z12", "D6"):
        group = small[name]
        for _ in range(2):
            ops.append(bullet_op(group, generators.random_operator(group, rng),
                                 generators.random_operator(group, rng)))
    # around the 90th percentile, 15%: the ideal suite on D6
    d6 = small["D6"]
    ops.extend(ideal_suite_op(d6, generators.random_positive_definite(d6, rng))
               for _ in range(16))
    # top 3%: order-24 ideal reports
    for name in ("S4", "D12", "Z2xZ2xZ6"):
        ops.append(cli_op(["ideals", "--group", name, "--count", "1",
                           "--seed", _cli_seed(rng)]))
    return ops


def subgroup_lattice(rng, out_dir: Path) -> list[Op]:
    """Python table loops and character rebuilds; decompositions are n x n."""
    lattice = {name: groups.builtin_group(name) for name in SUBGROUP_GENERATORS}
    ops = []
    # bottom 39%: adaptedness on abelian groups, Choquet-Deny at orders 40-60
    for name in ("Z12", "Z2xZ2xZ6", "Z2xZ20", "Z2xZ30"):
        ops.extend(adaptedness_op(lattice[name], mu)
                   for mu in _lattice_measures(lattice[name], 6, rng))
    for name in ("D20", "Z60"):
        ops.extend(choquet_deny_op(lattice[name], mu)
                   for mu in _lattice_measures(lattice[name], 8, rng))
    # around the median, 45%: Choquet-Deny with the whole group generated at order 120
    for name in ("D60", "Z120"):
        full = SUBGROUP_GENERATORS[name][0]
        ops.extend(choquet_deny_op(lattice[name], _generating_measure(lattice[name], full, rng))
                   for _ in range(23))
    # around the 90th percentile, 14%: order-120 limit products and the
    # lattices of orders 22-24; the top 3% are the lattices of orders 40 and 60
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("S5", "D60", "Z120"):
        group = groups.builtin_group(name)
        for k in range(3):
            # a fixed support size keeps the Theta(mu) apply cost steady
            mu = _measure_on(group, rng.choice(group.order, size=40, replace=False), rng)
            path = out_dir / f"mu-{name}-{k}.json"
            path.write_text(json.dumps(functions.measure_to_json(mu)))
            ops.append(cli_op(["limit-product", "--group", name, "--mu", str(path),
                               "--seed", _cli_seed(rng)]))
    ops.extend(all_subgroups_op(groups.builtin_group(name)) for name in SUBGROUP_COUNTS)
    return ops


WORKLOADS = {
    "commutant-zoo": commutant_zoo,
    "predual-ideals": predual_ideals,
    "subgroup-lattice": subgroup_lattice,
}


def build(workload: str, seed: int, out_dir: Path) -> list[Op]:
    return WORKLOADS[workload](np.random.default_rng(seed), out_dir)
