"""Finite groups as dense Cayley tables with 0-based element indices."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

# construction is capped here; |G|^4 work has its own cap, linalg.SUPEROP_CAP
ORDER_CAP = 120


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
        n = len(elements)
        _check_order(n)
        table = np.asarray(table, dtype=np.intp)
        if table.shape != (n, n):
            raise GroupTableError(f"table shape {table.shape} != ({n}, {n})")
        _validate_table(table)
        # a Latin, associative table is already a group, so neither lookup can
        # fail: the identity e solves 0 e = 0, and once e is relabeled to 0,
        # a^-1 is where 0 sits in row a
        identity = int(np.argmin(table[0] != 0))
        if identity != 0:
            perm = _relabeling(n, identity)
            old = np.argsort(perm)
            table = perm[table[np.ix_(old, old)]]
            elements = [elements[i] for i in old]
        self.name = name
        self.order = n
        self.elements = list(elements)
        self.table = table
        self.identity = 0
        self.inverse = np.argmin(table, axis=1)
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self._abelian: bool | None = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.order})"

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def exponent(self) -> int:
        """The least k with a^k = e for every a: all powers advance together."""
        elems = np.arange(self.order)
        powers, k = elems, 1
        while np.any(powers != self.identity):
            powers = self.table[powers, elems]
            k += 1
        return k

    def to_json(self) -> dict:
        """Group document; inverses and identity are derived, never stored."""
        return {
            "name": self.name,
            "order": self.order,
            "elements": list(self.elements),
            "table": self.table.tolist(),
        }


def _check_order(n: int) -> None:
    """Reject an order outside 1..ORDER_CAP before any n x n array is built."""
    if n < 1:
        raise GroupTableError("a group has at least one element")
    if n > ORDER_CAP:
        raise GroupTableError(f"order {n} exceeds the cap {ORDER_CAP}")


def _validate_table(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise SchemaError(
            f"table[{bad[0]}][{bad[1]}] = {table[bad[0], bad[1]]} is out of range 0..{n - 1}"
        )
    full = np.arange(n)
    bad_rows = np.any(np.sort(table, axis=1) != full, axis=1)
    bad_cols = np.any(np.sort(table, axis=0) != full[:, None], axis=0)
    if np.any(bad_rows | bad_cols):
        a = int(np.argmax(bad_rows | bad_cols))
        raise GroupTableError(f"{'row' if bad_rows[a] else 'column'} {a} is not a permutation")
    # Light's test: the b with (a*b)*c = a*(b*c) for all a, c are closed under
    # products, so checking b over a generating set covers all n^3 triples
    gens = _generators(table)
    left = table[table[:, gens]]   # left[a, i, c] = (a*b)*c for b = gens[i]
    right = table[:, table[gens]]  # right[a, i, c] = a*(b*c)
    if not np.array_equal(left, right):
        a, i, c = np.argwhere(left != right)[0]
        b = gens[i]
        raise GroupTableError(f"associativity fails at ({a}, {b}, {c}): "
                              f"({a}*{b})*{c} = {left[a, i, c]} but {a}*({b}*{c}) = {right[a, i, c]}")


def _generators(table: np.ndarray) -> np.ndarray:
    """A set whose closure under products is every element of a Latin table:
    add the least element not yet reached, then square the reached set until
    it stops growing.  A two-sided identity passes Light's test on any table,
    so it starts out reached and is never a generator.  Each reached set is a
    subquasigroup, and the next one at least doubles it (H x misses H for x
    outside H), so there are at most log2(n) + 1 generators."""
    n = table.shape[0]
    full = np.arange(n)
    e = int(table[0].argmin())  # 0*e = 0
    reached = np.zeros(n, dtype=bool)
    reached[e] = np.array_equal(table[e], full) and np.array_equal(table[:, e], full)
    gens = []
    while not reached.all():
        g = int(reached.argmin())
        gens.append(g)
        reached[g] = True
        reached[list(_closure(table, np.flatnonzero(reached)))] = True
    return np.array(gens, dtype=np.intp)


def _relabeling(n: int, identity: int) -> np.ndarray:
    """Permutation old index -> new index moving the identity to slot 0."""
    old = np.arange(n)
    return np.where(old == identity, 0, old + (old < identity))


# ---------------------------------------------------------------------------
# constructors

def cyclic_group(n: int) -> GroupTable:
    """Z_n with element k at index k."""
    _check_order(n)
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return GroupTable(f"Z{n}", [str(k) for k in range(n)], table)


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the n-gon, order 2n: index r is the rotation by r,
    index n+r the reflection s*r^r.  Encoded as maps x -> eps*x + t on Z_n."""
    _check_order(2 * n)
    eps = np.repeat([1, -1], n)
    r = np.tile(np.arange(n), 2)
    # (e1, r1)(e2, r2) = (e1 e2, e1 r2 + r1), with index r or n + r
    table = (eps[:, None] * r + r[:, None]) % n + n * (eps[:, None] * eps < 0)
    labels = [f"r{r}" for r in range(n)] + [f"sr{r}" for r in range(n)]
    return GroupTable(f"D{n}", labels, table)


def symmetric_group(m: int) -> GroupTable:
    """S_m on {0..m-1}, m <= 5, elements in lexicographic order."""
    if not 1 <= m <= 5:
        raise ValueError("symmetric degree must be between 1 and 5")
    perms = np.array(sorted(itertools.permutations(range(m))))
    # the base-m code of a permutation increases with its lexicographic rank
    place = m ** np.arange(m - 1, -1, -1)
    table = np.searchsorted(perms @ place, perms[:, perms] @ place)  # (p q)[k] = p[q[k]]
    labels = ["".join(map(str, p)) for p in perms.tolist()]
    return GroupTable(f"S{m}", labels, table)


_QUATERNION_UNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
# sign bit of the product of units u, v in (1, i, j, k): ii = jj = kk = -1, ik = -j, ...
_QUATERNION_SIGNS = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion_group() -> GroupTable:
    """The quaternion group Q8 = {±1, ±i, ±j, ±k}.

    Index 2u + s is the unit u in (1, i, j, k) with sign bit s.  The units
    multiply as u XOR v (ij = k, jk = i, ki = j) up to the sign in _QUATERNION_SIGNS.
    """
    u, s = np.divmod(np.arange(8), 2)
    sign = s[:, None] ^ s ^ _QUATERNION_SIGNS[u[:, None], u]
    table = 2 * (u[:, None] ^ u) + sign
    return GroupTable("Q8", list(_QUATERNION_UNITS), table)


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """G1 x G2 with pair (a, b) at index a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    a1, b1 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    a2, b2 = np.divmod(np.arange(n1 * n2)[None, :], n2)
    table = g1.table[a1, a2] * n2 + g2.table[b1, b2]
    labels = [f"({g1.elements[a]},{g2.elements[b]})"
              for a in range(n1) for b in range(n2)]
    return GroupTable(f"{g1.name}x{g2.name}", labels, table)


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
        if not isinstance(document[key], typ) or isinstance(document[key], bool):
            raise SchemaError(f"field {key!r} must be {typ.__name__}")
    n = document["order"]
    _check_order(n)
    if len(document["elements"]) != n:
        raise SchemaError(f"expected {n} element labels, got {len(document['elements'])}")
    table = document["table"]
    if len(table) != n or any(not isinstance(row, list) or len(row) != n for row in table):
        raise SchemaError(f"table must be {n}x{n}")
    if any(not isinstance(v, int) or isinstance(v, bool) for row in table for v in row):
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
        if self.parent.identity not in self.members:
            raise GroupTableError("subgroup misses the identity")
        m = np.array(self.members)
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[m] = True
        closed = inside[self.parent.inverse[m]]
        if not closed.all():
            raise GroupTableError(f"subgroup not closed under inverse at {m[np.argmin(closed)]}")
        closed = inside[self.parent.table[m][:, m]]
        if not closed.all():
            a, b = m[np.argwhere(~closed)[0]]
            raise GroupTableError(f"subgroup not closed under product at ({a}, {b})")

    @classmethod
    def _closed(cls, parent: GroupTable, members: tuple[int, ...]) -> "Subgroup":
        """A subgroup from sorted distinct members that the caller has closed
        itself, without the check of __post_init__."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "members", members)
        return sub

    def __contains__(self, x: int) -> bool:
        return x in self.members

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
    orbits = np.sort(images, axis=0)
    # column y holds the whole orbit of y; keep it when y is its smallest member
    first = orbits[0] == np.arange(images.shape[1])
    return [tuple(orbit) for orbit in orbits[:, first].T.tolist()]


def generated_subgroup(group: GroupTable, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``."""
    members = np.unique([group.identity, *(int(x) for x in gens)])
    out = members[(members < 0) | (members >= group.order)]
    if out.size:
        raise ValueError(f"generator index {out[0]} out of range")
    return Subgroup._closed(group, _closure(group.table, members))


def _closure(table: np.ndarray, members: np.ndarray) -> tuple[int, ...]:
    """The closure of valid indices ``members`` under the products of a Latin
    ``table``, sorted: the set is squared until its size stops growing.

    In a finite group a set containing the identity and closed under products
    is already a subgroup (inverses are positive powers), so with the
    identity among ``members`` the result is the subgroup they generate and
    skips the closure check of Subgroup.  The products are marked in a
    boolean array, which also drops repeats from the start set.
    """
    inside = np.zeros(len(table), dtype=bool)
    inside[members] = True
    members = np.flatnonzero(inside)
    while True:
        inside[table[members[:, None], members]] = True
        grown = np.flatnonzero(inside)
        if len(grown) == len(members):
            return tuple(grown.tolist())
        members = grown


def all_subgroups(group: GroupTable) -> list[Subgroup]:
    """Every subgroup, found by joining known subgroups with one extra
    element until nothing new appears, sorted by order, then by members.

    For h, h' in H and k prime to the order of x, x^k generates <x>, so
    <H, h x^k h'> = <H, x>: one join per class H x^k H suffices.  After each
    join the whole class is marked done, with one gather.
    """
    n, e, table = group.order, group.identity, group.table
    # powers[k, x] = x^k for k up to the exponent, the first k with every x^k = e
    powers = [np.full(n, e), np.arange(n)]
    while np.any(powers[-1] != e):
        powers.append(table[powers[-1], powers[1]])
    powers = np.array(powers)
    order = np.argmax(powers[1:] == e, axis=0) + 1
    found = {(e,): Subgroup._closed(group, (e,))}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for sub in frontier:
            h = np.array(sub.members)
            done = np.zeros(n, dtype=bool)
            done[h] = True
            for x in np.flatnonzero(~done):
                if done[x]:
                    continue
                members = _closure(table, np.append(h, x))
                if members not in found:
                    found[members] = Subgroup._closed(group, members)
                    fresh.append(found[members])
                ks = np.arange(1, order[x])
                units = powers[ks[np.gcd(ks, order[x]) == 1], x]
                hx = table[h[:, None], units]  # h x^k
                done[table[hx[:, :, None], h]] = True  # h x^k h'
        frontier = fresh
    return sorted(found.values(), key=lambda s: (len(s), s.members))


def characters(group: GroupTable) -> np.ndarray:
    """All |G| characters of an abelian group, one per row of a read-only
    (n, n) complex array, the trivial character first.

    Works up a tower of cyclic extensions: each new generator g with g^d the
    first power landing in the current subgroup multiplies the character count
    by d.  Values are tracked as exact integer exponents modulo the group
    exponent, so orthogonality holds to machine precision.
    """
    if not group.is_abelian:
        raise ValueError(f"{group.name} is nonabelian; characters are not implemented")
    n = group.order
    big_l = group.exponent()
    members = np.array([group.identity])
    exps = np.zeros((1, n), dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    while len(members) < n:
        g = int(np.argmin(inside))
        powers = [group.identity, g]
        while not inside[powers[-1]]:
            powers.append(group.mul(powers[-1], g))
        landing = powers.pop()  # g^d, already in the subgroup
        d = len(powers)
        kd = exps[:, landing]
        assert np.all(kd % d == 0) and big_l % d == 0
        # character k extends in d ways, t = kd/d + m L/d for m < d, and sends
        # the block x g^j (j < d, x in the subgroup) to k(x) + j t
        t = (kd[:, None] // d + np.arange(d) * (big_l // d)) % big_l
        block = group.table[members[None, :], np.array(powers)[:, None]]
        j = np.arange(d)[:, None]
        grown = np.repeat(exps[:, None], d, axis=1)
        grown[:, :, block] = (exps[:, None, None, members] + j * t[:, :, None, None]) % big_l
        members = block.reshape(-1)
        inside[members] = True
        exps = grown.reshape(-1, n)
    out = np.exp(2j * np.pi * exps / big_l)
    out.setflags(write=False)
    return out
