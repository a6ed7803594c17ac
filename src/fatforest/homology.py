"""Ground-truth engine: reduced simplicial homology over exact fields, the
Hochster subset sweep, and the link-homology Cohen-Macaulay test.

All homology runs on one kernel, _ChainReducer: the column reduction of
persistent homology (Edelsbrunner-Letscher-Zomorodian 2002; Zomorodian-Carlsson
2005) on an induced subcomplex that grows one vertex at a time and can undo
its last step. Each face is listed once, in the lower star of its highest
vertex, and faces are reduced in (size, mask) order; a vertex is only added
above every vertex present. A whole complex adds, in order, the vertices with
a nonempty lower star. The sweep covers all 2^N vertex subsets but visits one
per orbit of the twin-class permutations, depth first, adding and undoing one
vertex per step, so no subset is built from scratch; it first relabels the
complex so that each twin class is a run of consecutive labels. The orbit
reduction rests on facet-set symmetry alone, never on the closed forms the
oracle checks.

Columns are sparse: int bitmasks over GF(2), {row: coefficient} dicts over
GF(p) and Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .betti import BettiTable
from .complexes import SimplicialComplex, bits_of, link, vertex_mask

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
            raise ValueError("use rat for characteristic 0")
        return cls(p)

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


class _ChainReducer:
    """Reduced homology of an induced subcomplex of c that grows one vertex
    at a time, by the column reduction of persistent homology.

    Every face of c is listed once, in the lower star of its highest vertex,
    with its size and boundary faces, in (size, mask) order. add(v,
    selection) brings in the faces of v's lower star that lie inside
    selection (which holds v). Precondition: every other selected vertex is
    below v, so these are the new faces of the induced subcomplex and each
    boundary is present before its face. A new face takes the next row index
    among the faces of its size, so no earlier column gains an entry: each
    new column either reduces to zero or adds one pivot, keyed by its lowest
    (largest) row. undo() restores the face counts and drops the pivots of
    the last add, and dims() is then nullity minus rank in every degree.

    Over GF(2) a column is an int bitmask of rows. Over GF(p) and Q it is a
    sparse {row: coefficient} dict, and stored pivots are scaled to 1 at
    their low row; over Q only a pivot other than 1 or -1 makes a Fraction.
    """

    def __init__(self, c: SimplicialComplex, field: FieldSpec):
        self.p = field.characteristic
        top = c.dim + 1
        self.stars: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(c.n_vertices)]
        for f in sorted(sorted(c.faces()), key=int.bit_count)[1:]:  # all but the empty face
            boundary = []  # f minus one vertex, by ascending vertex
            rest = f
            while rest:
                low = rest & -rest
                boundary.append(f ^ low)
                rest ^= low
            self.stars[f.bit_length() - 1].append((f, len(boundary), boundary))
        # rows of faces dropped by undo() stay here; no present face reads them
        self.row = {0: 0}
        self.counts = [1] + [0] * top
        # pivots[s]: low row -> reduced boundary column of a size-s face
        self.pivots: list[dict] = [{} for _ in range(top + 2)]
        self.history: list[tuple[list[int], list[tuple[dict, int]]]] = []

    def add(self, v: int, selection: int) -> None:
        row, counts, pivots = self.row, self.counts, self.pivots
        stored = []
        self.history.append((counts[:], stored))
        outside = ~selection
        for f, s, boundary in self.stars[v]:
            if f & outside:
                continue
            row[f] = counts[s]
            counts[s] += 1
            piv_s = pivots[s]
            if self.p == 2:
                col = 0
                for b in boundary:
                    col |= 1 << row[b]
                while col:
                    low = col.bit_length() - 1
                    piv = piv_s.get(low)
                    if piv is None:
                        piv_s[low] = col
                        break
                    col ^= piv
                else:  # reduced to zero
                    continue
            elif (low := self._reduce(boundary, piv_s)) is None:
                continue
            stored.append((piv_s, low))

    def undo(self) -> None:
        self.counts, stored = self.history.pop()
        for piv_s, low in stored:
            del piv_s[low]

    def dims(self) -> tuple[int, ...]:
        """Reduced Betti numbers in degrees -1 .. dim c."""
        pivots = self.pivots
        return tuple(n - len(pivots[s]) - len(pivots[s + 1]) for s, n in enumerate(self.counts))

    def _reduce(self, boundary: list[int], pivots: dict) -> int | None:
        """Reduce the signed boundary column of a face over GF(p) or Q; store
        and return its pivot row, or None when it reduces to zero."""
        row, p = self.row, self.p
        col = {row[b]: -1 if i & 1 else 1 for i, b in enumerate(boundary)}
        while col:
            low = max(col)
            piv = pivots.get(low)
            a = col[low]
            if piv is None:
                inv = pow(a, -1, p) if p else Fraction(1, a)
                if inv.denominator == 1:  # keeps coefficients over Q ints while it can
                    inv = inv.numerator
                pivots[low] = {r: x * inv % p if p else x * inv for r, x in col.items()}
                return low
            for r, x in piv.items():
                y = col.get(r, 0) - a * x
                if p:
                    y %= p
                if y:
                    col[r] = y
                else:
                    del col[r]
        return None


def reduced_homology_dims(
    c: SimplicialComplex, field: FieldSpec = GF2, guard: int = DEFAULT_GUARD
) -> tuple[int, ...]:
    """Dimensions of the reduced homology of c in degrees -1 .. dim c."""
    if c.n_vertices > guard:
        raise OracleGuardError(c.n_vertices, guard)
    kernel = _ChainReducer(c, field)
    for v, star in enumerate(kernel.stars):
        if star:
            kernel.add(v, (2 << v) - 1)
    return kernel.dims()


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
    it to. It walks the counts depth first, class by class, on one
    _ChainReducer: each step adds one vertex to the induced subcomplex and
    backtracking undoes it, so no subset is rebuilt from scratch. The complex
    is first relabelled so that each class is a run of consecutive labels, in
    the order the classes are found; each add is then above every selected
    vertex, as _ChainReducer requires. The empty subset and a subset of
    vertices that lie in no facet induce {empty face}, whose reduced homology
    is 1 in degree -1.
    """
    n = c.n_vertices
    if n > guard:
        raise OracleGuardError(n, guard)
    table = BettiTable(n)
    classes = _twin_classes(c)
    label = {v: i for i, v in enumerate(v for cls in classes for v in cls)}
    c = SimplicialComplex(n, tuple(vertex_mask(label[v] for v in bits_of(f)) for f in c.facets))
    classes = [range(label[cls[0]], label[cls[0]] + len(cls)) for cls in classes]
    kernel = _ChainReducer(c, field)

    def walk(r: int, selection: int, weight: int) -> None:
        if r == len(classes):
            j = selection.bit_count()
            for idx, h in enumerate(kernel.dims()):
                if h:
                    table.add(j - idx, j, h * weight)
            return
        walk(r + 1, selection, weight)
        cls = classes[r]
        for t, v in enumerate(cls, start=1):
            selection |= 1 << v
            kernel.add(v, selection)
            walk(r + 1, selection, weight * comb(len(cls), t))
        for _ in cls:
            kernel.undo()

    walk(0, 0, 1)
    del walk  # it holds itself through its closure; without this the kernel waits for the gc
    return table


def reisner_is_cm(
    c: SimplicialComplex, field: FieldSpec = GF2, guard: int = DEFAULT_GUARD
) -> bool:
    """Cohen-Macaulay test by link homology: true iff for every face sigma
    (the empty face included) the link of sigma has vanishing reduced homology
    below its own dimension."""
    if c.n_vertices > guard:
        raise OracleGuardError(c.n_vertices, guard)
    # smallest faces first: a complex that is not CM usually fails at a vertex link
    for sigma in sorted(c.faces(), key=lambda m: (m.bit_count(), m)):
        lk = link(c, sigma)
        dims = reduced_homology_dims(lk, field, guard)
        if any(dims[:-1]):
            return False
    return True
