"""Finite groups as dense Cayley tables with 0-based element indices."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# |G|^4 superoperator work grows fast; construction itself is capped here.
ORDER_CAP = 120
SUPEROP_CAP = 24


class SchemaError(ValueError):
    """An input document does not match its JSON schema."""


class GroupTableError(ValueError):
    """A would-be Cayley table violates the group axioms."""


class GroupTable:
    """A finite group: element labels plus its full multiplication table.

    Elements are the indices 0..order-1 and index 0 is always the identity
    (tables parsed from files are relabeled on load if needed).  ``table[a, b]``
    is the index of the product a*b and ``inverse[a]`` the index of a^-1.
    All arrays are frozen after construction; instances are safe to share
    between workers.
    """

    def __init__(self, name: str, elements: list[str], table):
        table = np.asarray(table, dtype=np.intp)
        n = len(elements)
        if n == 0:
            raise GroupTableError("a group has at least one element")
        if n > ORDER_CAP:
            raise GroupTableError(f"order {n} exceeds the cap {ORDER_CAP}")
        if table.shape != (n, n):
            raise GroupTableError(f"table shape {table.shape} != ({n}, {n})")
        _validate_table(table)
        identity = _find_identity(table)
        if identity != 0:
            perm = _relabeling(n, identity)
            table = perm[table[np.ix_(np.argsort(perm), np.argsort(perm))]]
            elements = [elements[i] for i in np.argsort(perm)]
        self.name = name
        self.order = n
        self.elements = list(elements)
        self.table = table
        self.identity = 0
        self.inverse = _find_inverses(table)
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self._abelian: bool | None = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.order})"

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        return math.lcm(*(self.element_order(a) for a in range(self.order)))

    def to_json(self) -> dict:
        """Group document; inverses and identity are derived, never stored."""
        return {
            "name": self.name,
            "order": self.order,
            "elements": list(self.elements),
            "table": self.table.tolist(),
        }


def _validate_table(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise SchemaError(
            f"table[{bad[0]}][{bad[1]}] = {table[bad[0], bad[1]]} is out of range 0..{n - 1}"
        )
    full = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(table[a]), full):
            raise GroupTableError(f"row {a} is not a permutation")
        if not np.array_equal(np.sort(table[:, a]), full):
            raise GroupTableError(f"column {a} is not a permutation")
    left = table[table]            # left[a, b, c] = (a*b)*c
    right = table[:, table]        # right[a, b, c] = a*(b*c)
    if not np.array_equal(left, right):
        a, b, c = np.argwhere(left != right)[0]
        raise GroupTableError(f"associativity fails at ({a}, {b}, {c}): "
                              f"({a}*{b})*{c} = {left[a, b, c]} but {a}*({b}*{c}) = {right[a, b, c]}")


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    full = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], full) and np.array_equal(table[:, e], full):
            return e
    raise GroupTableError("no identity element")


def _find_inverses(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    inv = np.empty(n, dtype=np.intp)
    for a in range(n):
        hits = np.flatnonzero(table[a] == 0)
        if len(hits) != 1 or table[hits[0], a] != 0:
            raise GroupTableError(f"element {a} has no two-sided inverse")
        inv[a] = hits[0]
    return inv


def _relabeling(n: int, identity: int) -> np.ndarray:
    """Permutation old index -> new index moving the identity to slot 0."""
    order = [identity] + [i for i in range(n) if i != identity]
    perm = np.empty(n, dtype=np.intp)
    for new, old in enumerate(order):
        perm[old] = new
    return perm


# ---------------------------------------------------------------------------
# constructors

def cyclic_group(n: int) -> GroupTable:
    """Z_n with element k at index k."""
    if n < 1:
        raise ValueError("cyclic order must be positive")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return GroupTable(f"Z{n}", [str(k) for k in range(n)], table)


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the n-gon, order 2n: index r is the rotation by r,
    index n+r the reflection s*r^r.  Encoded as maps x -> eps*x + t on Z_n."""
    if n < 1:
        raise ValueError("dihedral parameter must be positive")
    elems = [(1, r) for r in range(n)] + [(-1, r) for r in range(n)]
    index = {el: i for i, el in enumerate(elems)}
    table = np.empty((2 * n, 2 * n), dtype=np.intp)
    for i, (e1, r1) in enumerate(elems):
        for j, (e2, r2) in enumerate(elems):
            table[i, j] = index[(e1 * e2, (e1 * r2 + r1) % n)]
    labels = [f"r{r}" for r in range(n)] + [f"sr{r}" for r in range(n)]
    return GroupTable(f"D{n}", labels, table)


def symmetric_group(m: int) -> GroupTable:
    """S_m on {0..m-1}, m <= 5, elements in lexicographic order."""
    if not 1 <= m <= 5:
        raise ValueError("symmetric degree must be between 1 and 5")
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.empty((len(perms), len(perms)), dtype=np.intp)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(m))]
    labels = ["".join(map(str, p)) for p in perms]
    return GroupTable(f"S{m}", labels, table)


_QUATERNION_UNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def quaternion_group() -> GroupTable:
    """The quaternion group Q8 = {±1, ±i, ±j, ±k}."""
    basis = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}

    def as_quat(label):
        sign = -1 if label.startswith("-") else 1
        vec = basis[label.lstrip("-")]
        return tuple(sign * v for v in vec)

    def quat_mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    index = {as_quat(lbl): i for i, lbl in enumerate(_QUATERNION_UNITS)}
    table = np.empty((8, 8), dtype=np.intp)
    for i, p in enumerate(_QUATERNION_UNITS):
        for j, q in enumerate(_QUATERNION_UNITS):
            table[i, j] = index[quat_mul(as_quat(p), as_quat(q))]
    return GroupTable("Q8", list(_QUATERNION_UNITS), table)


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """G1 x G2 with pair (a, b) at index a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    a1, b1 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    a2, b2 = np.divmod(np.arange(n1 * n2)[None, :], n2)
    table = g1.table[a1, a2] * n2 + g2.table[b1, b2]
    labels = [f"({g1.elements[a]},{g2.elements[b]})"
              for a in range(n1) for b in range(n2)]
    return GroupTable(f"{g1.name}x{g2.name}", labels, table)


def make_group(kind: str, *args) -> GroupTable:
    """Dispatch on a constructor kind: cyclic(n), dihedral(n), symmetric(m),
    quaternion(), direct_product(G1, G2)."""
    makers = {
        "cyclic": cyclic_group,
        "dihedral": dihedral_group,
        "symmetric": symmetric_group,
        "quaternion": quaternion_group,
        "direct_product": direct_product,
    }
    if kind not in makers:
        raise ValueError(f"unknown group kind {kind!r}")
    return makers[kind](*args)


def builtin_group(name: str) -> GroupTable:
    """Resolve shorthand names: Z6, D4 (order 8), S3, Q8, Z2xZ4, ..."""
    parts = name.split("x")
    if len(parts) > 1:
        group = builtin_group(parts[0])
        for part in parts[1:]:
            group = direct_product(group, builtin_group(part))
        group.name = name
        return group
    if name == "Q8":
        return quaternion_group()
    if len(name) >= 2 and name[0] in "ZDS" and name[1:].isdigit():
        n = int(name[1:])
        if name[0] == "Z":
            return cyclic_group(n)
        if name[0] == "D":
            return dihedral_group(n)
        return symmetric_group(n)
    raise ValueError(f"unknown group name {name!r}")


def parse_group(document: str | dict) -> GroupTable:
    """Load a group document {"name", "order", "elements", "table"}, validating
    the schema and every group axiom; identity is relabeled to index 0."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("group document must be a JSON object")
    for key, typ in [("name", str), ("order", int), ("elements", list), ("table", list)]:
        if key not in document:
            raise SchemaError(f"missing field {key!r}")
        if not isinstance(document[key], typ):
            raise SchemaError(f"field {key!r} must be {typ.__name__}")
    n = document["order"]
    if len(document["elements"]) != n:
        raise SchemaError(f"expected {n} element labels, got {len(document['elements'])}")
    table = document["table"]
    if len(table) != n or any(not isinstance(row, list) or len(row) != n for row in table):
        raise SchemaError(f"table must be {n}x{n}")
    if any(not isinstance(v, int) for row in table for v in row):
        raise SchemaError("table entries must be integers")
    return GroupTable(document["name"], [str(e) for e in document["elements"]], table)


# ---------------------------------------------------------------------------
# subgroups and characters

@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its sorted member indices."""

    parent: GroupTable
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        mem = set(self.members)
        if self.parent.identity not in mem:
            raise GroupTableError("subgroup misses the identity")
        for a in mem:
            if self.parent.inv(a) not in mem:
                raise GroupTableError(f"subgroup not closed under inverse at {a}")
            for b in mem:
                if self.parent.mul(a, b) not in mem:
                    raise GroupTableError(f"subgroup not closed under product at ({a}, {b})")

    def __contains__(self, x: int) -> bool:
        return x in set(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def right_cosets(self) -> list[tuple[int, ...]]:
        """Orbits Hy of left translation by the subgroup, each sorted."""
        return _orbits(self.parent.table[list(self.members), :])

    def left_cosets(self) -> list[tuple[int, ...]]:
        """Cosets yH, each sorted."""
        return _orbits(self.parent.table[:, list(self.members)].T)


def _orbits(images: np.ndarray) -> list[tuple[int, ...]]:
    """Orbits of a subgroup action whose images of y form column y of
    ``images``; each orbit sorted, the orbits ordered by smallest member."""
    seen: set[int] = set()
    orbits = []
    for y in range(images.shape[1]):
        if y not in seen:
            orbit = tuple(int(v) for v in np.sort(images[:, y]))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def generated_subgroup(group: GroupTable, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``.

    In a finite group a set containing the identity and closed under products
    is already a subgroup (inverses are positive powers), so a plain closure
    sweep suffices.
    """
    gens = sorted(set(int(x) for x in gens))
    for x in gens:
        if not 0 <= x < group.order:
            raise ValueError(f"generator index {x} out of range")
    members = {group.identity, *gens}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                p = group.mul(a, b)
                if p not in members:
                    members.add(p)
                    changed = True
    return Subgroup(group, tuple(members))


def all_subgroups(group: GroupTable) -> list[Subgroup]:
    """Every subgroup, found by closing known subgroups under one extra
    generator until nothing new appears.  Fine at desk scale."""
    found = {(group.identity,): Subgroup(group, (group.identity,))}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for sub in frontier:
            for x in range(group.order):
                if x in sub:
                    continue
                bigger = generated_subgroup(group, set(sub.members) | {x})
                if bigger.members not in found:
                    found[bigger.members] = bigger
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found.values(), key=lambda s: (len(s), s.members))


@dataclass(frozen=True)
class Character:
    """A multiplicative map into the unit circle, given by its value vector."""

    group: GroupTable
    values: np.ndarray

    def __call__(self, x: int) -> complex:
        return complex(self.values[x])


def characters(group: GroupTable) -> list[Character]:
    """All |G| characters of an abelian group.

    Works up a tower of cyclic extensions: each new generator g with g^d the
    first power landing in the current subgroup multiplies the character count
    by d.  Values are tracked as exact integer exponents modulo the group
    exponent, so orthogonality holds to machine precision.
    """
    if not group.is_abelian:
        raise ValueError(f"{group.name} is nonabelian; characters are not implemented")
    n = group.order
    big_l = group.exponent()
    members = [group.identity]
    exps = [np.zeros(n, dtype=np.int64)]
    in_sub = {group.identity}
    while len(members) < n:
        g = min(x for x in range(n) if x not in in_sub)
        d, power = 1, g
        while power not in in_sub:
            power = group.mul(power, g)
            d += 1
        landing = power  # g^d, already in the subgroup
        new_exps = []
        for k in exps:
            kd = int(k[landing])
            assert kd % d == 0 and big_l % d == 0
            for m in range(d):
                t = (kd // d + m * (big_l // d)) % big_l
                k2 = k.copy()
                gj = group.identity
                for j in range(d):
                    for x in members:
                        k2[group.mul(x, gj)] = (k[x] + j * t) % big_l
                    gj = group.mul(gj, g)
                new_exps.append(k2)
        gj = group.identity
        new_members = []
        for _ in range(d):
            new_members.extend(group.mul(x, gj) for x in members)
            gj = group.mul(gj, g)
        members = new_members
        in_sub = set(members)
        exps = new_exps
    out = [Character(group, np.exp(2j * np.pi * k / big_l)) for k in exps]
    for ch in out:
        ch.values.setflags(write=False)
    return out
