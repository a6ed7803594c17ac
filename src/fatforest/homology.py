"""Ground-truth engine: reduced simplicial homology over exact fields, the
Hochster subset sweep, and the link-homology Cohen-Macaulay test.

The sweep covers all 2^N vertex subsets but computes homology only once per
orbit of the twin-class permutations, and only for the connected components
of each subset's induced subcomplex. Both reductions rest on homology and
facet-set symmetry alone, never on the closed forms the oracle checks.

Boundary ranks are computed by dense Gaussian elimination: bitmask rows over
GF(2), modular arithmetic over GF(p), fractions over the rationals. The
complexes these oracles see are tiny, so nothing sparser is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, isqrt

from .betti import BettiTable
from .complexes import SimplicialComplex, bits_of, link

DEFAULT_GUARD = 24


class OracleGuardError(RuntimeError):
    """Raised when a complex exceeds the configured vertex guard."""

    def __init__(self, n_vertices: int, guard: int):
        super().__init__(
            f"{n_vertices} vertices exceeds the oracle guard of {guard}; "
            f"raise the guard to accept the exponential runtime"
        )
        self.n_vertices = n_vertices
        self.guard = guard


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    top = isqrt(p)
    while d <= top:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a prime p, or characteristic 0 for exact rationals."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= 1 << 31:
            raise ValueError("prime characteristic must be below 2^31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        if p == 0:
            raise ValueError("use FieldSpec.rationals() for characteristic 0")
        return cls(p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def parse(cls, label: str) -> "FieldSpec":
        text = label.strip().lower()
        if text in ("rat", "rational", "rationals", "q", "qq"):
            return cls(0)
        if text.startswith("gf"):
            try:
                return cls.gf(int(text[2:]))
            except ValueError as exc:
                raise ValueError(f"bad field {label!r}: {exc}") from None
        raise ValueError(f"bad field {label!r}; expected gf<p> or rat")

    @property
    def label(self) -> str:
        return "rat" if self.characteristic == 0 else f"gf{self.characteristic}"


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
RATIONALS = FieldSpec(0)


def _rank_gf2(columns: list[int]) -> int:
    """Rank of a GF(2) matrix whose columns are row-index bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for vec in columns:
        while vec:
            top = vec.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = vec
                rank += 1
                break
            vec ^= piv
    return rank


def _rank_gfp(columns: list[list[int]], p: int) -> int:
    pivots: list[tuple[int, list[int]]] = []
    rank = 0
    for vec in columns:
        v = list(vec)
        for row, pivot in pivots:
            c = v[row] % p
            if c:
                v = [(a - c * b) % p for a, b in zip(v, pivot)]
        for row, a in enumerate(v):
            a %= p
            if a:
                inv = pow(a, p - 2, p)
                pivots.append((row, [(x * inv) % p for x in v]))
                rank += 1
                break
    return rank


def _rank_exact(columns: list[list[int]]) -> int:
    pivots: list[tuple[int, list[Fraction]]] = []
    rank = 0
    for vec in columns:
        v = [Fraction(x) for x in vec]
        for row, pivot in pivots:
            c = v[row]
            if c:
                v = [a - c * b for a, b in zip(v, pivot)]
        for row, a in enumerate(v):
            if a:
                pivots.append((row, [x / a for x in v]))
                rank += 1
                break
    return rank


def _boundary_ranks(faces_by_size: list[list[int]], field: FieldSpec) -> list[int]:
    """ranks[s] = rank of the boundary map from size-s faces to size-(s-1) faces."""
    top = len(faces_by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        index = {m: i for i, m in enumerate(faces_by_size[s - 1])}
        if field.characteristic == 2:
            cols = []
            for face in faces_by_size[s]:
                col = 0
                rest = face
                while rest:
                    low = rest & -rest
                    col |= 1 << index[face ^ low]
                    rest ^= low
                cols.append(col)
            ranks[s] = _rank_gf2(cols)
        else:
            m = len(faces_by_size[s - 1])
            cols = []
            for face in faces_by_size[s]:
                vec = [0] * m
                sign = 1
                rest = face
                while rest:
                    low = rest & -rest
                    vec[index[face ^ low]] = sign
                    sign = -sign
                    rest ^= low
                cols.append(vec)
            if field.characteristic:
                ranks[s] = _rank_gfp(cols, field.characteristic)
            else:
                ranks[s] = _rank_exact(cols)
    return ranks


def _homology_dims(faces_by_size: list[list[int]], field: FieldSpec) -> tuple[int, ...]:
    """Reduced homology dimensions in degrees -1..top for a downward-closed
    face family; faces_by_size[0] must be [0] (the empty face).

    Uses the augmented chain complex: the boundary of a vertex is the empty
    face, and dim H_d = nullity(boundary_d) - rank(boundary_{d+1}).
    """
    top = len(faces_by_size) - 1
    ranks = _boundary_ranks(faces_by_size, field)
    return tuple(
        len(faces_by_size[s]) - ranks[s] - ranks[s + 1] for s in range(top + 1)
    )


def reduced_homology_dims(
    c: SimplicialComplex, field: FieldSpec = GF2, guard: int = DEFAULT_GUARD
) -> tuple[int, ...]:
    """Dimensions of the reduced homology of c in degrees -1 .. dim c."""
    if c.n_vertices > guard:
        raise OracleGuardError(c.n_vertices, guard)
    return _homology_dims(c.faces_by_size(), field)


def _twin_classes(c: SimplicialComplex) -> list[list[int]]:
    """Vertices grouped by facet-preserving transpositions, each class ascending.

    u and v are twins when swapping them maps the facet set onto itself.
    Twinship is transitive, since (u w) = (u v)(v w)(u v), so each vertex is
    tested only against the first member of every class found so far.
    """
    facets = set(c.facets)
    classes: list[list[int]] = []
    for v in range(c.n_vertices):
        for cls in classes:
            swap = (1 << cls[0]) | (1 << v)
            if all(
                (f ^ swap if (f & swap).bit_count() == 1 else f) in facets
                for f in c.facets
            ):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def hochster_betti(
    c: SimplicialComplex, field: FieldSpec = GF2, guard: int = DEFAULT_GUARD
) -> BettiTable:
    """Graded Betti numbers of the face ring of c by Hochster's formula:
    every vertex subset S of size j contributes dim H_{j-i-1} of the induced
    subcomplex on S to the (i, j) entry.

    The sweep visits one subset per orbit of the twin classes (see
    _twin_classes): for class counts (t_1, ..., t_m) it takes the first t_r
    vertices of class r and weights that subset's homology by
    prod C(|class_r|, t_r), the number of subsets the class permutations carry
    it to. A subset that is a face is acyclic and skipped. Otherwise its
    induced subcomplex splits into the connected components of its 1-skeleton:
    reduced homology is the sum over the components, plus (components - 1) in
    degree 0. A component that is a face is acyclic. The homology of a
    component of a disconnected subset recurs in other subsets, so it is
    cached by vertex mask for the duration of the call; a connected subset is
    met only once as a whole, so it is not cached. A subset holding only
    vertices that lie in no facet induces {empty face}, whose reduced
    homology is 1 in degree -1. Results only ever accumulate, so the visiting
    order cannot change the output.
    """
    n = c.n_vertices
    if n > guard:
        raise OracleGuardError(n, guard)
    table = BettiTable(n)
    table.add(0, 0, 1)
    faces = c.faces()
    nonempty = sorted(f for f in faces if f)
    used = 0
    neighbours = [0] * n
    for f in c.facets:
        used |= f
        for v in bits_of(f):
            neighbours[v] |= f
    component_dims: dict[int, tuple[int, ...]] = {}
    options = []
    for cls in _twin_classes(c):
        prefix = 0
        choices = [(0, 1)]
        for t, v in enumerate(cls, start=1):
            prefix |= 1 << v
            choices.append((prefix, comb(len(cls), t)))
        options.append(choices)
    for orbit in product(*options):
        selection = 0
        weight = 1
        for prefix, count in orbit:
            selection |= prefix
            weight *= count
        # a selection inside a facet induces a full simplex, which is acyclic
        if selection in faces:
            continue
        j = selection.bit_count()
        support = rest = selection & used
        if not rest:
            table.add(j, j, weight)
            continue
        components = 0
        while rest:
            component = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = neighbours[low.bit_length() - 1] & rest & ~component
                component |= grown
                frontier |= grown
            rest ^= component
            components += 1
            if component in faces:
                continue
            dims = component_dims.get(component)
            if dims is None:
                chosen = [f for f in nonempty if f & ~component == 0]
                top = max(f.bit_count() for f in chosen)
                buckets: list[list[int]] = [[] for _ in range(top + 1)]
                buckets[0].append(0)
                for f in chosen:
                    buckets[f.bit_count()].append(f)
                dims = _homology_dims(buckets, field)
                if component != support:
                    component_dims[component] = dims
            for idx, h in enumerate(dims):
                if h:
                    table.add(j - idx, j, h * weight)
        if components > 1:
            table.add(j - 1, j, (components - 1) * weight)
    return table


def reisner_is_cm(
    c: SimplicialComplex, field: FieldSpec = GF2, guard: int = DEFAULT_GUARD
) -> bool:
    """Cohen-Macaulay test by link homology: true iff for every face sigma
    (the empty face included) the link of sigma has vanishing reduced homology
    below its own dimension."""
    if c.n_vertices > guard:
        raise OracleGuardError(c.n_vertices, guard)
    for sigma in sorted(c.faces()):
        lk = link(c, sigma)
        dims = reduced_homology_dims(lk, field, guard)
        if any(dims[:-1]):
            return False
    return True
