"""Simplicial complexes as canonical facet lists of vertex bitmasks, plus the
point-glued simplex unions Delta(n1, ..., ne) and their skeleton machinery.

A vertex set is an int bitmask over vertices 0..n_vertices-1, so the universe
is capped at 64 vertices (one machine word; the exhaustive oracles are
exponential long before that matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable

from .polynomials import FVector

MAX_VERTICES = 64

# Faces and facets are plain ints used as bitmasks.
VertexSet = int


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of distinct vertex indices."""
    mask = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"negative vertex index {v}")
        bit = 1 << v
        if mask & bit:
            raise ValueError(f"repeated vertex {v}")
        mask |= bit
    return mask


def bits_of(mask: int) -> tuple[int, ...]:
    """Vertex indices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _canonical_facets(masks: Iterable[int]) -> tuple[int, ...]:
    """Distinct nonzero masks that no other mask contains, sorted by (size, mask).

    containing[v] has bit p set when the mask at position p contains vertex v,
    so the AND over the vertices of a mask marks every mask containing it.
    Sorting by size puts every proper superset at a later position.
    """
    uniq = sorted({m for m in masks if m}, key=lambda m: (m.bit_count(), m))
    containing: dict[int, int] = {}
    for pos, m in enumerate(uniq):
        for v in bits_of(m):
            containing[v] = containing.get(v, 0) | 1 << pos
    keep = []
    for pos, m in enumerate(uniq):
        supersets = -1
        for v in bits_of(m):
            supersets &= containing[v]
        if not supersets >> (pos + 1):
            keep.append(m)
    return tuple(keep)


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list over vertices 0..n_vertices-1, canonicalized on construction.

    Facets are deduplicated, contained masks are dropped, and the list is
    sorted by (size, mask). A complex with no facets is {empty face}.
    """

    n_vertices: int
    facets: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= self.n_vertices <= MAX_VERTICES:
            raise ValueError(
                f"vertex count must be between 0 and {MAX_VERTICES}, got {self.n_vertices}"
            )
        raw = tuple(self.facets)
        for m in raw:
            if m < 0 or m >> self.n_vertices:
                raise ValueError(f"facet {bin(m)} is outside the {self.n_vertices}-vertex universe")
        object.__setattr__(self, "facets", _canonical_facets(raw))

    @property
    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(m.bit_count() for m in self.facets) - 1

    def is_face(self, mask: int) -> bool:
        if mask == 0:
            return True
        return any(mask & ~f == 0 for f in self.facets)

    def faces(self) -> set[int]:
        """Every face as a bitmask, including the empty face 0."""
        seen = {0}
        for f in self.facets:
            sub = f
            while sub:
                seen.add(sub)
                sub = (sub - 1) & f
        return seen

    def faces_by_size(self) -> list[list[int]]:
        """Faces bucketed by vertex count; index s holds the size-s faces, sorted."""
        buckets: list[list[int]] = [[] for _ in range(self.dim + 2)]
        for f in self.faces():
            buckets[f.bit_count()].append(f)
        for level in buckets:
            level.sort()
        return buckets


GLUING_PRESETS = ("chain-distinct", "star")


@dataclass(frozen=True)
class FatForestSpec:
    """Sizes and gluing schedule for a union of simplices glued at single points.

    gluing is "chain-distinct" (each block attached at the most recently added
    vertex of the previous block, so the attachment points are all distinct),
    "star" (every block attached at vertex 0 of the first block), or an
    explicit tuple of (block index >= 2, vertex index in the partial union).

    Construction validates the spec: at least one block, every size at least
    2, a known preset, and an explicit schedule naming each block 2..e once
    with a target inside the union of the blocks before it.
    """

    sizes: tuple[int, ...]
    gluing: str | tuple[tuple[int, int], ...] = "chain-distinct"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes:
            raise ValueError("at least one block is required")
        for s in self.sizes:
            if s < 2:
                raise ValueError(f"block sizes must be at least 2, got {s}")
        if isinstance(self.gluing, str):
            if self.gluing not in GLUING_PRESETS:
                raise ValueError(
                    f"unknown gluing preset {self.gluing!r}; expected "
                    f"{', '.join(GLUING_PRESETS)} or explicit (block, vertex) pairs"
                )
            return
        schedule = tuple((int(i), int(v)) for i, v in self.gluing)
        object.__setattr__(self, "gluing", schedule)
        if sorted(i for i, _ in schedule) != list(range(2, len(self.sizes) + 1)):
            raise ValueError("explicit gluing must name each block 2..e exactly once")
        seen = self._union_sizes()
        for i, v in schedule:
            if not 0 <= v < seen[i - 2]:
                raise ValueError(
                    f"gluing target {v} for block {i} is outside the current {seen[i - 2]} vertices"
                )

    def _union_sizes(self) -> list[int]:
        """Vertex count of the union of blocks 1..i-1, for each block i = 2..e."""
        return [1 + t for t in accumulate(s - 1 for s in self.sizes[:-1])]

    @property
    def n_vars(self) -> int:
        """Vertex count: block sizes minus the glued points."""
        return sum(self.sizes) - (len(self.sizes) - 1)

    @property
    def dim(self) -> int:
        """Dimension of the whole complex, the smallest k whose k-skeleton is all of it."""
        return max(self.sizes) - 1

    @property
    def gluing_vertices(self) -> tuple[int, ...]:
        """The vertex each block 2..e is glued at, in block order."""
        if self.gluing == "star":
            return (0,) * (len(self.sizes) - 1)
        if self.gluing == "chain-distinct":
            return tuple(n - 1 for n in self._union_sizes())
        return tuple(v for _, v in sorted(self.gluing))


def build_fat_forest(spec: FatForestSpec) -> SimplicialComplex:
    """Assemble the complex whose blocks are simplices of the given sizes, each
    later block meeting the union of the earlier ones in exactly one vertex.

    Block 1 takes vertices 0..n1-1; each later block reuses its gluing vertex
    and takes the next fresh indices in order, so the labeling is deterministic.
    """
    n_total = spec.n_vars
    if n_total > MAX_VERTICES:
        raise ValueError(f"{n_total} vertices exceeds the {MAX_VERTICES}-vertex limit")
    union = (1 << spec.sizes[0]) - 1
    facets = [union]
    next_vertex = spec.sizes[0]
    for size, target in zip(spec.sizes[1:], spec.gluing_vertices):
        mask = 1 << target | ((1 << (size - 1)) - 1) << next_vertex
        next_vertex += size - 1
        assert (mask & union).bit_count() == 1, "a block meets the earlier ones in one vertex"
        facets.append(mask)
        union |= mask
    assert next_vertex == n_total
    return SimplicialComplex(n_total, tuple(facets))


def skeleton(c: SimplicialComplex, k: int) -> SimplicialComplex:
    """All faces of dimension <= k; equals c when k >= dim c."""
    if k < 0:
        raise ValueError("skeleton dimension must be nonnegative")
    if k >= c.dim:
        return c
    new_facets: list[int] = []
    for f in c.facets:
        if f.bit_count() <= k + 1:
            new_facets.append(f)
        else:
            for combo in combinations(bits_of(f), k + 1):
                new_facets.append(vertex_mask(combo))
    return SimplicialComplex(c.n_vertices, tuple(new_facets))


def f_vector(c: SimplicialComplex) -> FVector:
    """Exact face counts by dimension, found by enumerating distinct facet subsets."""
    counts = [0] * (c.dim + 2)
    for face in c.faces():
        counts[face.bit_count()] += 1
    return FVector(tuple(counts))


def link(c: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma is a face of c."""
    if not c.is_face(sigma):
        raise ValueError(f"{bits_of(sigma)} is not a face")
    cofaces = tuple(f & ~sigma for f in c.facets if f & sigma == sigma)
    return SimplicialComplex(c.n_vertices, cofaces)


def minimal_nonfaces(c: SimplicialComplex) -> list[int]:
    """Inclusion-minimal vertex subsets that are not faces, sorted by (size, mask).

    These are the supports of the squarefree generators of the face ideal,
    found by clique extension over the 1-skeleton:
    - size 1: the vertices no facet covers;
    - size 2: pairs of covered vertices that are not an edge;
    - size m >= 3: every proper subset of a minimal nonface C is a face, so
      C minus its largest vertex is an (m-1)-face f and that vertex is a
      common neighbour of f above max(f). Each (m-1)-face f is extended by
      those common neighbours, and f | w is kept when it is not a face and
      its other maximal proper subsets are faces.
    C comes only from the prefix face C minus max(C), so every candidate is
    produced once and no set of visited candidates is kept.
    """
    by_size = c.faces_by_size()
    face_sets = [set(level) for level in by_size]
    covered = 0
    for f in c.facets:
        covered |= f
    out = [1 << v for v in range(c.n_vertices) if not covered >> v & 1]
    nbr = [0] * c.n_vertices
    for e in by_size[2] if len(by_size) > 2 else ():
        u, w = bits_of(e)
        nbr[u] |= 1 << w
        nbr[w] |= 1 << u
    for u in bits_of(covered):
        above = covered >> (u + 1) << (u + 1)
        for w in bits_of(above & ~nbr[u]):
            out.append(1 << u | 1 << w)
    top = len(by_size) - 1  # = dim + 1
    for m in range(3, top + 2):
        smaller = face_sets[m - 1]
        current = face_sets[m] if m <= top else set()
        for f in by_size[m - 1]:
            prefix = bits_of(f)
            common = -1
            for v in prefix:
                common &= nbr[v]
            for w in bits_of(common >> (prefix[-1] + 1) << (prefix[-1] + 1)):
                cand = f | 1 << w
                if cand in current:
                    continue
                for v in prefix:
                    if (cand ^ 1 << v) not in smaller:
                        break
                else:
                    out.append(cand)
    out.sort(key=lambda mask: (mask.bit_count(), mask))
    return out


def parse_facet_lines(text: str) -> SimplicialComplex:
    """Read the facet-list text format: one facet per line, vertex indices
    separated by spaces, '#' starts a comment, blank lines ignored."""
    facets = []
    max_vertex = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            verts = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {line_no}: expected vertex indices, got {line!r}") from None
        if any(v < 0 for v in verts):
            raise ValueError(f"line {line_no}: negative vertex index")
        if max(verts) >= MAX_VERTICES:
            raise ValueError(f"line {line_no}: vertex {max(verts)} exceeds the {MAX_VERTICES}-vertex limit")
        try:
            facets.append(vertex_mask(verts))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        max_vertex = max(max_vertex, max(verts))
    return SimplicialComplex(max_vertex + 1, tuple(facets))


def facet_lines(c: SimplicialComplex) -> str:
    """Inverse of parse_facet_lines for complexes whose vertices are all used."""
    return "".join(" ".join(str(v) for v in bits_of(f)) + "\n" for f in c.facets)
