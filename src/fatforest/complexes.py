"""Simplicial complexes as canonical facet lists of vertex bitmasks, plus the
point-glued simplex unions Delta(n1, ..., ne) and their skeleton machinery.

A vertex set is an int bitmask over vertices 0..n_vertices-1, so the universe
is capped at 64 vertices (one machine word; the exhaustive oracles are
exponential long before that matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    uniq = sorted({m for m in masks if m}, key=lambda m: (m.bit_count(), m))
    keep = []
    for idx, m in enumerate(uniq):
        size = m.bit_count()
        if any(m & ~o == 0 for o in uniq[idx + 1 :] if o.bit_count() > size):
            continue
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


@dataclass(frozen=True)
class FatForestSpec:
    """Sizes and gluing schedule for a union of simplices glued at single points.

    gluing is "chain-distinct" (each block attached at the most recently added
    vertex of the previous block, so the attachment points are all distinct),
    "star" (every block attached at vertex 0 of the first block), or an
    explicit tuple of (block index >= 2, vertex index in the partial union).
    """

    sizes: tuple[int, ...]
    gluing: str | tuple[tuple[int, int], ...] = "chain-distinct"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not isinstance(self.gluing, str):
            object.__setattr__(
                self, "gluing", tuple((int(i), int(v)) for i, v in self.gluing)
            )


def _explicit_schedule(spec: FatForestSpec) -> dict[int, int]:
    e = len(spec.sizes)
    mapping: dict[int, int] = {}
    for i, v in spec.gluing:  # type: ignore[union-attr]
        if i in mapping:
            raise ValueError(f"duplicate gluing entry for block {i}")
        mapping[i] = v
    if sorted(mapping) != list(range(2, e + 1)):
        raise ValueError("explicit gluing must name each block 2..e exactly once")
    return mapping


def build_fat_forest(spec: FatForestSpec) -> SimplicialComplex:
    """Assemble the complex whose blocks are simplices of the given sizes, each
    later block meeting the union of the earlier ones in exactly one vertex.

    Block 1 takes vertices 0..n1-1; each later block reuses its gluing vertex
    and takes the next fresh indices in order, so the labeling is deterministic.
    """
    sizes = spec.sizes
    if not sizes:
        raise ValueError("at least one block is required")
    for s in sizes:
        if s < 2:
            raise ValueError(f"block sizes must be at least 2, got {s}")
    e = len(sizes)
    n_total = sum(sizes) - (e - 1)
    if n_total > MAX_VERTICES:
        raise ValueError(f"{n_total} vertices exceeds the {MAX_VERTICES}-vertex limit")

    explicit = None
    if isinstance(spec.gluing, str):
        if spec.gluing not in ("chain-distinct", "star"):
            raise ValueError(f"unknown gluing preset {spec.gluing!r}")
    else:
        explicit = _explicit_schedule(spec)

    first = (1 << sizes[0]) - 1
    facets = [first]
    union = first
    next_vertex = sizes[0]
    for idx in range(1, e):
        if explicit is not None:
            target = explicit[idx + 1]
        elif spec.gluing == "star":
            target = 0
        else:
            target = next_vertex - 1
        if not 0 <= target < next_vertex:
            raise ValueError(
                f"gluing target {target} for block {idx + 1} is outside the "
                f"current {next_vertex} vertices"
            )
        mask = 1 << target
        for v in range(next_vertex, next_vertex + sizes[idx] - 1):
            mask |= 1 << v
        next_vertex += sizes[idx] - 1
        if (mask & union).bit_count() != 1:
            raise ValueError(f"block {idx + 1} meets the earlier blocks in more than one vertex")
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


def induced_subcomplex(c: SimplicialComplex, selected: int) -> SimplicialComplex:
    """Faces of c contained in the selected vertex set, reindexed onto 0..|S|-1."""
    if selected < 0 or selected >> c.n_vertices:
        raise ValueError("selected vertices are outside the universe")
    verts = bits_of(selected)
    position = {v: i for i, v in enumerate(verts)}
    remapped = []
    for f in c.facets:
        inter = f & selected
        mask = 0
        for v in bits_of(inter):
            mask |= 1 << position[v]
        remapped.append(mask)
    return SimplicialComplex(len(verts), tuple(remapped))


def link(c: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma is a face of c."""
    if not c.is_face(sigma):
        raise ValueError(f"{bits_of(sigma)} is not a face")
    cofaces = tuple(f & ~sigma for f in c.facets if f & sigma == sigma)
    return SimplicialComplex(c.n_vertices, cofaces)


def minimal_nonfaces(c: SimplicialComplex) -> list[int]:
    """Inclusion-minimal vertex subsets that are not faces, sorted by (size, mask).

    These are the supports of the squarefree generators of the face ideal.
    The search walks subset sizes upward, extending faces by one vertex and
    keeping candidates all of whose maximal proper subsets are faces.
    """
    n = c.n_vertices
    by_size = c.faces_by_size()
    face_sets = [set(level) for level in by_size]
    covered = 0
    for f in c.facets:
        covered |= f
    out = [1 << v for v in range(n) if not covered >> v & 1]
    top = len(by_size) - 1  # = dim + 1
    for m in range(2, top + 2):
        smaller = face_sets[m - 1]
        current = face_sets[m] if m <= top else set()
        seen: set[int] = set()
        for f in by_size[m - 1]:
            for v in range(n):
                bit = 1 << v
                if f & bit:
                    continue
                cand = f | bit
                if cand in seen:
                    continue
                seen.add(cand)
                if cand in current:
                    continue
                rest = cand
                minimal = True
                while rest:
                    low = rest & -rest
                    if (cand ^ low) not in smaller:
                        minimal = False
                        break
                    rest ^= low
                if minimal:
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
