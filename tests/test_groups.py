import ast
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmop.groups
from harmop.groups import (
    GroupTableError,
    SchemaError,
    Subgroup,
    _generators,
    _validate_table,
    all_subgroups,
    builtin_group,
    characters,
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    parse_group,
    quaternion_group,
    symmetric_group,
)

SAMPLE_GROUPS = [
    cyclic_group(1),
    cyclic_group(6),
    dihedral_group(4),
    symmetric_group(3),
    quaternion_group(),
    direct_product(cyclic_group(2), cyclic_group(4)),
]


def element_order(g, a):
    """The least k >= 1 with a^k = e."""
    k, x = 1, a
    while x != g.identity:
        x = g.mul(x, a)
        k += 1
    return k


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.identity == 0
    assert int(g.inverse[0]) == 0


def test_symmetric_3_against_permutation_oracle():
    g = symmetric_group(3)
    assert g.order == 6
    # rebuild the table from raw permutation composition
    perms = sorted(itertools.permutations(range(3)))
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[k]] for k in range(3))
            assert perms[g.mul(i, j)] == composed
    assert not g.is_abelian
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))


def test_dihedral_against_affine_map_oracle():
    # index r is x -> x + r, index n + r is x -> -x + r on Z_n
    n = 5
    g = dihedral_group(n)
    maps = [(1, r) for r in range(n)] + [(-1, r) for r in range(n)]
    for i, (e1, r1) in enumerate(maps):
        for j, (e2, r2) in enumerate(maps):
            assert maps[g.mul(i, j)] == (e1 * e2, (e1 * r2 + r1) % n)


def test_quaternion_against_hamilton_product_oracle():
    units = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}

    def quat(label):
        sign = -1 if label.startswith("-") else 1
        return np.array(units[label.lstrip("-")]) * sign

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    g = quaternion_group()
    for a, p in enumerate(g.elements):
        for b, q in enumerate(g.elements):
            assert tuple(quat(g.elements[g.mul(a, b)])) == hamilton(quat(p), quat(q))


def test_symmetric_4_against_permutation_oracle():
    g = symmetric_group(4)
    perms = sorted(itertools.permutations(range(4)))
    assert g.elements == ["".join(map(str, p)) for p in perms]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert perms[g.mul(i, j)] == tuple(p[q[k]] for k in range(4))


def test_klein_four_self_inverse():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    for a in range(4):
        assert g.mul(a, a) == g.identity


def test_dihedral_4():
    g = dihedral_group(4)
    assert g.order == 8
    assert not g.is_abelian
    assert element_order(g, 1) == 4  # the basic rotation


def test_quaternion_group():
    g = quaternion_group()
    assert g.order == 8
    assert not g.is_abelian
    # -1 is the unique element of order 2
    order_two = [a for a in range(8) if element_order(g, a) == 2]
    assert order_two == [g.elements.index("-1")]


@pytest.mark.parametrize("g", SAMPLE_GROUPS, ids=lambda g: g.name)
def test_group_axioms(g):
    n = g.order
    left = g.table[g.table]
    right = g.table[:, g.table]
    assert np.array_equal(left, right)
    assert np.array_equal(g.table[0], np.arange(n))
    assert np.array_equal(g.table[:, 0], np.arange(n))
    for a in range(n):
        assert g.mul(a, int(g.inverse[a])) == 0
        assert g.mul(int(g.inverse[a]), a) == 0
        assert np.array_equal(np.sort(g.table[a]), np.arange(n))
        assert np.array_equal(np.sort(g.table[:, a]), np.arange(n))


def test_order_caps():
    with pytest.raises(ValueError):
        symmetric_group(6)
    with pytest.raises(GroupTableError):
        cyclic_group(121)


@pytest.mark.parametrize("build", [
    lambda: builtin_group("Z2000"),
    lambda: builtin_group("D1000"),
    lambda: builtin_group("Z50xZ50"),
    lambda: parse_group({"name": "big", "order": 10**9, "elements": [], "table": []}),
], ids=["Z2000", "D1000", "Z50xZ50", "parsed"])
def test_order_cap_is_checked_before_any_table_is_built(build):
    # an order-2000 table alone is 32 MB of indices
    tracemalloc.start()
    try:
        with pytest.raises(GroupTableError, match=r"exceeds the cap 120"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_builtin_names():
    assert builtin_group("Z6").order == 6
    assert builtin_group("D4").order == 8
    assert builtin_group("S3").order == 6
    assert builtin_group("Q8").order == 8
    g = builtin_group("Z2xZ4")
    assert g.order == 8 and g.is_abelian
    with pytest.raises(ValueError):
        builtin_group("foo")


def test_parse_round_trip():
    g = cyclic_group(3)
    doc = g.to_json()
    assert set(doc) == {"name", "order", "elements", "table"}
    loaded = parse_group(json.dumps(doc))
    assert loaded.identity == 0
    assert np.array_equal(loaded.table, g.table)
    assert loaded.elements == g.elements


def test_parse_normalizes_identity_to_zero():
    # relabel Z3 so its identity sits at index 1
    g = cyclic_group(3)
    perm = [1, 0, 2]  # old -> new
    inv = np.argsort(perm)
    table = [[perm[g.mul(inv[a], inv[b])] for b in range(3)] for a in range(3)]
    doc = {"name": "shifted", "order": 3, "elements": ["a", "e", "b"], "table": table}
    loaded = parse_group(doc)
    assert loaded.identity == 0
    assert loaded.elements[0] == "e"
    assert np.array_equal(loaded.table[0], np.arange(3))


def test_parse_schema_errors():
    with pytest.raises(SchemaError):
        parse_group("not json at all {")
    with pytest.raises(SchemaError):
        parse_group({"name": "x", "order": 2, "elements": ["a", "b"]})
    bad_range = {"name": "x", "order": 2, "elements": ["e", "a"],
                 "table": [[0, 1], [1, 5]]}
    with pytest.raises(SchemaError, match="out of range"):
        parse_group(bad_range)


@pytest.mark.parametrize("doc", [
    {"name": "x", "order": 2, "elements": ["e", "a"], "table": [[False, True], [True, False]]},
    {"name": "x", "order": True, "elements": ["e"], "table": [[0]]},
], ids=["table", "order"])
def test_parse_rejects_json_booleans(doc):
    with pytest.raises(SchemaError, match="must be"):
        parse_group(json.dumps(doc))


# a*b = a + s(b) mod 5 with s swapping 3 and 4: a Latin square with no identity
QUASIGROUP_5 = [[(a + [0, 1, 2, 4, 3][b]) % 5 for b in range(5)] for a in range(5)]


def test_parse_rejects_nonassociative_latin_square():
    with pytest.raises(GroupTableError, match="associativity"):
        parse_group({"name": "quasigroup", "order": 5,
                     "elements": list("abcde"), "table": QUASIGROUP_5})


def associativity_oracle(table) -> tuple[int, int, int] | None:
    """The first triple (a, b, c) with (a*b)*c != a*(b*c), from all n^3 of them."""
    left = table[table]            # left[a, b, c] = (a*b)*c
    right = table[:, table]        # right[a, b, c] = a*(b*c)
    bad = left != right
    return tuple(int(v) for v in np.unravel_index(bad.argmax(), bad.shape)) if bad.any() else None


def intercalate_swapped(name: str) -> np.ndarray:
    """The table of a built-in group with one intercalate (a 2 x 2 Latin
    subsquare) swapped: rows b, b*u and columns c, u*c for an involution u,
    none of them the identity, so the result is a loop with identity 0."""
    table = builtin_group(name).table.copy()
    u = next(x for x in range(1, len(table)) if table[x, x] == 0)
    b = c = next(x for x in range(1, len(table)) if x != u)
    block = np.ix_([b, table[b, u]], [c, table[u, c]])
    square = table[block]
    assert square[0, 0] == square[1, 1] and square[0, 1] == square[1, 0]
    table[block] = square[:, ::-1]
    return table


def _closure(table, start) -> np.ndarray:
    """Mask of the elements that products of ``start`` and any two-sided
    identity reach."""
    n = len(table)
    reached = np.zeros(n, dtype=bool)
    reached[start] = True
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
            reached[e] = True
    while True:
        members = np.flatnonzero(reached)
        grown = reached.copy()
        grown[table[np.ix_(members, members)]] = True
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def _isotope(name: str) -> np.ndarray:
    """(a, b) -> p[t[q[a], r[b]]] for seeded random permutations p, q, r of
    a built-in group's table t: a Latin square, and in general no loop."""
    table = builtin_group(name).table
    p, q, r = np.random.default_rng(0).permuted(np.tile(np.arange(len(table)), (3, 1)), axis=1)
    return p[table[np.ix_(q, r)]]


def _latin_table(case: str) -> np.ndarray:
    name, _, kind = case.partition("-")
    if case == "quasigroup":
        return np.array(QUASIGROUP_5)
    if kind == "intercalate":
        return intercalate_swapped(name)
    if kind == "isotope":
        return _isotope(name)
    return builtin_group(name).table


BUILTIN_NAMES = ([f"Z{n}" for n in range(1, 121)] + [f"D{n}" for n in range(1, 61)]
                 + [f"S{m}" for m in range(1, 6)]
                 + ["Q8", "Z2xZ4", "Z3xS3", "Z2xZ2xZ6", "Q8xZ3", "S3xS3", "Z2xS4", "Q8xZ5"])
LATIN_CASES = (["quasigroup"]
               + [f"{name}-intercalate" for name in ["Z6", "S4", "D12", "D60"]]
               + [f"{name}-isotope" for name in ["S3", "Q8", "S4", "Z2xZ2xZ6", "S5"]]
               + BUILTIN_NAMES)


@pytest.mark.parametrize("case", LATIN_CASES)
def test_light_test_agrees_with_the_cube(case):
    table = _latin_table(case)
    gens = _generators(table)  # Light's test is sound only on a generating set
    assert _closure(table, gens).all()
    assert len(gens) <= np.log2(len(table)) + 1
    oracle = associativity_oracle(table)
    if case.endswith("-intercalate"):
        assert oracle is not None
        assert np.array_equal(table[0], np.arange(len(table)))
        assert np.array_equal(table[:, 0], np.arange(len(table)))
    if oracle is None:
        _validate_table(table)
        return
    with pytest.raises(GroupTableError, match="associativity fails at") as err:
        _validate_table(table)
    a, b, c = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(err.value)).groups())
    assert table[table[a, b], c] != table[a, table[b, c]]


@pytest.mark.parametrize("name", ["S5", "D60", "Z120"])
def test_construction_at_order_120_allocates_no_cube(name):
    # the n^3 associativity cube alone is 13.8 MB at order 120
    tracemalloc.start()
    try:
        builtin_group(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_parse_rejects_broken_latin_square():
    table = [[0, 0], [1, 1]]
    with pytest.raises(GroupTableError, match="^row 0 is not a permutation$"):
        parse_group({"name": "x", "order": 2, "elements": ["e", "a"], "table": table})


def test_parse_rejects_table_whose_columns_alone_fail():
    table = [[0, 1], [0, 1]]
    with pytest.raises(GroupTableError, match="^column 0 is not a permutation$"):
        parse_group({"name": "x", "order": 2, "elements": ["e", "a"], "table": table})


def breadth_first_closure(g, gens) -> tuple[int, ...]:
    """<gens> by breadth-first search: start at the identity and right-multiply
    every reached element by every generator over the Cayley table."""
    reached, queue = {g.identity}, [g.identity]
    for a in queue:
        for x in gens:
            b = int(g.table[a, x])
            if b not in reached:
                reached.add(b)
                queue.append(b)
    return tuple(sorted(reached))


@pytest.mark.parametrize("g", SAMPLE_GROUPS + [builtin_group(name) for name in ("S5", "D60", "Z120")],
                         ids=lambda g: g.name)
def test_generated_subgroup_against_breadth_first_closure(g):
    rng = np.random.default_rng(7)
    for size in [0, 1, 1, 2, 2, 3, 3, 4]:
        gens = [int(x) for x in rng.choice(g.order, size=size)]  # repeats allowed
        assert generated_subgroup(g, gens).members == breadth_first_closure(g, gens)


@pytest.mark.parametrize("gens", [[6], [-1], [2, 6], [-1, 3]])
def test_generated_subgroup_rejects_indices_out_of_range(gens):
    with pytest.raises(ValueError, match="out of range"):
        generated_subgroup(cyclic_group(6), gens)


def test_generated_subgroup_empty():
    g = cyclic_group(6)
    assert generated_subgroup(g, []).members == (0,)


def test_generated_subgroup_z6():
    g = cyclic_group(6)
    # closure of {2} under repeated addition mod 6
    expected = set()
    x = 2
    while x not in expected:
        expected.add(x)
        x = (x + 2) % 6
    expected.add(0)
    sub = generated_subgroup(g, [2])
    assert set(sub.members) == expected == {0, 2, 4}


def test_generated_subgroup_s3_full():
    g = symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))
    transposition = perms.index((1, 0, 2))
    three_cycle = perms.index((1, 2, 0))
    assert len(generated_subgroup(g, [transposition, three_cycle])) == 6


@pytest.mark.parametrize("g", SAMPLE_GROUPS, ids=lambda g: g.name)
def test_generated_subgroup_idempotent(g):
    rng = np.random.default_rng(3)
    for _ in range(5):
        gens = rng.choice(g.order, size=min(2, g.order), replace=False)
        sub = generated_subgroup(g, gens)
        again = generated_subgroup(g, sub.members)
        assert again.members == sub.members


def test_subgroup_validation():
    g = cyclic_group(6)
    with pytest.raises(GroupTableError):
        Subgroup(g, (0, 2))  # not closed: 2+2=4 missing


def test_subgroup_error_messages():
    g = cyclic_group(6)
    with pytest.raises(GroupTableError, match="misses the identity"):
        Subgroup(g, (2, 4))
    with pytest.raises(GroupTableError, match=r"^subgroup not closed under inverse at 2$"):
        Subgroup(g, (3, 0, 2))
    with pytest.raises(GroupTableError, match=r"^subgroup not closed under product at \(1, 1\)$"):
        Subgroup(g, (5, 0, 1))
    sub = Subgroup(g, (4, 0, 2, 2))
    assert sub.members == (0, 2, 4)
    assert 4 in sub and 3 not in sub


def test_generated_subgroups_skip_the_check_but_equal_checked_ones(monkeypatch):
    g = builtin_group("D6")
    checks = []
    post_init = Subgroup.__post_init__
    monkeypatch.setattr(Subgroup, "__post_init__", lambda sub: checks.append(post_init(sub)))
    sub = generated_subgroup(g, [1, 7])
    assert checks == []
    assert Subgroup(g, sub.members) == sub and len(checks) == 1
    with pytest.raises(GroupTableError, match="not closed"):
        Subgroup(g, (0, 1))  # a user's set is still checked


def _workload_subgroup_counts() -> dict:
    """SUBGROUP_COUNTS of perfbench/workloads.py, read from its source."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SUBGROUP_COUNTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py has no SUBGROUP_COUNTS")


@pytest.mark.parametrize("name, count", sorted(_workload_subgroup_counts().items()))
def test_all_subgroups_counts_of_the_benchmark(name, count):
    subs = all_subgroups(builtin_group(name))
    assert len(subs) == count
    for sub in subs:  # each passes the check that generated_subgroup skipped
        assert Subgroup(sub.parent, sub.members) == sub


def coset_enumeration(g) -> list[Subgroup]:
    """Every subgroup by one join per right coset Hx beyond H, each join closed
    breadth-first: the oracle of all_subgroups, which joins once per class
    H x^k H."""
    e = g.identity
    found = {(e,): Subgroup(g, (e,))}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for sub in frontier:
            for coset in sub.right_cosets()[1:]:
                members = breadth_first_closure(g, sub.members + coset[:1])
                if members not in found:
                    found[members] = Subgroup(g, members)
                    fresh.append(found[members])
        frontier = fresh
    return sorted(found.values(), key=lambda s: (len(s), s.members))


# with SAMPLE_GROUPS, every group of order <= 24 that the tests build
ORACLE_NAMES = ["Z2", "Z3", "Z4", "Z5", "Z8", "Z12", "Z2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ12",
                "Z2xZ2xZ6", "S4", "D6", "D11", "D12", "Q8xZ3"]


@pytest.mark.parametrize("g", SAMPLE_GROUPS + [builtin_group(name) for name in ORACLE_NAMES],
                         ids=lambda g: g.name)
def test_all_subgroups_matches_the_coset_enumeration(g):
    assert [s.members for s in all_subgroups(g)] == [s.members for s in coset_enumeration(g)]


@pytest.mark.parametrize("name, most", [("S5", 1300), ("D60", 1400), ("Z120", 80)])
def test_all_subgroups_joins_once_per_double_coset_class(name, most, monkeypatch):
    # one join per right coset Hx would take 4169 / 5616 / 344 closures
    group = builtin_group(name)  # its table validation also calls _closure
    joins = []
    closure = harmop.groups._closure
    monkeypatch.setattr(harmop.groups, "_closure",
                        lambda table, members: joins.append(len(members)) or closure(table, members))
    all_subgroups(group)
    assert 0 < len(joins) <= most


def test_all_subgroups_s3():
    subs = all_subgroups(symmetric_group(3))
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_q8():
    subs = all_subgroups(quaternion_group())
    assert sorted(len(s) for s in subs) == [1, 2, 4, 4, 4, 8]


def test_all_subgroups_at_order_60_and_120():
    # D_m has tau(m) + sigma(m) subgroups, Z_m has tau(m); S5 has 156
    assert len(all_subgroups(dihedral_group(30))) == 8 + 72
    assert len(all_subgroups(dihedral_group(60))) == 12 + 168
    assert len(all_subgroups(cyclic_group(120))) == 16
    subs = all_subgroups(symmetric_group(5))
    assert len(subs) == 156
    assert sorted({len(s) for s in subs}) == [1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24, 60, 120]


RELABEL_NAMES = ["Z2", "Z6", "Z2xZ4", "Z3xZ3", "Z2xZ6", "S3", "D4", "Q8", "D6", "S4"]


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(RELABEL_NAMES), seed=st.integers(0, 2 ** 32 - 1))
def test_results_map_over_a_random_relabeling(name, seed):
    g = builtin_group(name)
    n = g.order
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)  # old -> new, with the identity moved off index 0
    if perm[0] == 0:
        perm = np.roll(perm, 1)
    old = np.argsort(perm)
    doc = {"name": "relabeled", "order": n, "elements": [g.elements[i] for i in old],
           "table": perm[g.table[np.ix_(old, old)]].tolist()}
    h = parse_group(doc)
    assert h.elements[0] == g.elements[0]
    to_h = np.array([h.elements.index(label) for label in g.elements])

    def mapped(members):
        return tuple(sorted(int(x) for x in to_h[list(members)]))

    subgroups = [s.members for s in all_subgroups(h)]
    assert subgroups == [s.members for s in coset_enumeration(h)]
    assert sorted(mapped(s) for s in all_subgroups(g)) == sorted(subgroups)
    gens = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
    assert mapped(generated_subgroup(g, gens)) == generated_subgroup(h, to_h[gens]).members
    assert h.exponent() == g.exponent()
    orders = [element_order(g, a) for a in range(n)]
    assert [element_order(h, int(to_h[a])) for a in range(n)] == orders
    if g.is_abelian:
        moved = set()
        for c in characters(g):
            values = np.empty(n, dtype=complex)
            values[to_h] = c
            moved.add(values.tobytes())
        assert moved == {c.tobytes() for c in characters(h)}


def test_cosets():
    g = symmetric_group(3)
    a3 = next(s for s in all_subgroups(g) if len(s) == 3)
    assert len(a3.right_cosets()) == 2
    assert len(a3.left_cosets()) == 2
    assert {x for coset in a3.left_cosets() for x in coset} == set(range(6))


def test_characters_z2():
    got = sorted(tuple(np.round(c.real).astype(int)) for c in characters(cyclic_group(2)))
    assert got == [(1, -1), (1, 1)]


def test_characters_z4_against_homomorphism_oracle():
    g = cyclic_group(4)
    # brute force: all maps into 4th roots of unity that are multiplicative
    roots = [1, 1j, -1, -1j]
    expected = set()
    for vals in itertools.product(range(4), repeat=4):
        vec = np.array([roots[v] for v in vals])
        if all(
            abs(vec[g.mul(a, b)] - vec[a] * vec[b]) < 1e-12
            for a in range(4) for b in range(4)
        ):
            expected.add(tuple(np.round(vec, 6)))
    got = {tuple(np.round(c, 6)) for c in characters(g)}
    assert got == expected
    assert len(got) == 4


def test_characters_nonabelian_rejected():
    with pytest.raises(ValueError, match="nonabelian"):
        characters(symmetric_group(3))


@pytest.mark.parametrize(
    "g",
    [cyclic_group(5), cyclic_group(8), direct_product(cyclic_group(2), cyclic_group(4)),
     direct_product(cyclic_group(3), cyclic_group(3))],
    ids=lambda g: g.name,
)
def test_character_orthogonality(g):
    mat = characters(g)
    assert mat.shape == (g.order, g.order) and not mat.flags.writeable
    assert np.array_equal(mat[0], np.ones(g.order))  # trivial character first
    gram = mat @ mat.conj().T
    assert np.abs(gram - g.order * np.eye(g.order)).max() < 1e-10


@pytest.mark.parametrize("g", SAMPLE_GROUPS, ids=lambda g: g.name)
def test_characters_multiplicative_when_abelian(g):
    if not g.is_abelian:
        return
    for c in characters(g):
        assert abs(c[0] - 1.0) < 1e-12
        for a in range(g.order):
            assert abs(abs(c[a]) - 1.0) < 1e-12
            for b in range(g.order):
                assert abs(c[g.mul(a, b)] - c[a] * c[b]) < 1e-12
