"""Input generators and output parsers the workloads share. Everything here
is the benchmark's own code: it builds inputs and expected values without
calling the program, so a check that compares against it is independent."""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

PRESETS = ("chain-distinct", "star")


def forest_blocks(sizes, gluing) -> list[list[int]]:
    """Vertex lists of the blocks, labelled the way the program documents:
    block 1 takes 0..n1-1, each later block its gluing vertex plus the next
    fresh indices."""
    explicit = dict(gluing) if not isinstance(gluing, str) else None
    blocks = [list(range(sizes[0]))]
    fresh = sizes[0]
    for idx, size in enumerate(sizes[1:], start=2):
        if explicit is not None:
            target = explicit[idx]
        elif gluing == "star":
            target = 0
        else:
            target = fresh - 1
        blocks.append([target] + list(range(fresh, fresh + size - 1)))
        fresh += size - 1
    return blocks


def random_gluing(rng, sizes):
    """A preset, or an explicit schedule gluing each block to a random earlier vertex."""
    choice = rng.choice(PRESETS + ("explicit",)) if len(sizes) > 2 else rng.choice(PRESETS)
    if choice != "explicit":
        return choice
    pairs = []
    count = sizes[0]
    for idx, size in enumerate(sizes[1:], start=2):
        pairs.append((idx, rng.randrange(count)))
        count += size - 1
    return tuple(pairs)


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def canonical(masks) -> list[int]:
    return sorted(set(masks), key=lambda m: (m.bit_count(), m))


def skeleton_facets(sizes, gluing, k: int) -> list[int]:
    """Facets of the k-skeleton, in the program's canonical order. Blocks
    meet in at most one vertex, so the (k+1)-subsets of different blocks are
    distinct and no whole block lies inside another."""
    facets = []
    for block in forest_blocks(sizes, gluing):
        if len(block) <= k + 1:
            facets.append(mask(block))
        else:
            facets.extend(mask(c) for c in combinations(block, k + 1))
    return canonical(facets)


def skeleton_face_count(sizes, k: int) -> int:
    """Faces of the k-skeleton, the empty face included: 1 + N + the faces
    of two or more vertices, each inside exactly one block."""
    n_vars = sum(sizes) - len(sizes) + 1
    return 1 + n_vars + sum(comb(s, j) for s in sizes for j in range(2, k + 2))


def facet_text(facets, rng=None, comment: str | None = None) -> str:
    """Facet-list text; with rng, lines and the vertices inside them are shuffled."""
    lines = []
    for f in facets:
        verts = [v for v in range(f.bit_length()) if f >> v & 1]
        if rng is not None:
            rng.shuffle(verts)
        lines.append(" ".join(str(v) for v in verts))
    if rng is not None:
        rng.shuffle(lines)
    head = [f"# {comment}"] if comment else []
    return "\n".join(head + lines) + "\n"


def face_counts(facets) -> list[int]:
    """f-vector (empty face first) of the complex generated by the facets."""
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    counts = [0] * (max(f.bit_count() for f in faces) + 1)
    for f in faces:
        counts[f.bit_count()] += 1
    return counts


def alternating_sums(table, n_vars: int) -> list[int]:
    return [table.alternating_sum(j) for j in range(n_vars + 1)]


def paper_entries(text: str) -> dict[tuple[int, int], int]:
    """Nonzero (i, j) entries read back from the paper-table layout."""
    out = {}
    for line in text.splitlines()[2:]:
        cells = line.split()
        d = int(cells[0].rstrip(":"))
        for i, cell in enumerate(cells[1:]):
            if cell != ".":
                out[(i, i + d)] = int(cell)
    return out


def csv_entries(text: str) -> dict[tuple[int, int], int]:
    """Nonzero (i, j) entries read back from the CSV layout."""
    out = {}
    for line in text.splitlines()[2:]:
        cells = line.split(",")
        d = int(cells[0])
        for i, cell in enumerate(cells[1:]):
            if int(cell):
                out[(i, i + d)] = int(cell)
    return out


def json_entries(doc_text: str) -> dict[tuple[int, int], int]:
    """Nonzero (i, j) entries of the "betti" list of a structured document."""
    return {(e["i"], e["j"]): int(e["value"]) for e in json.loads(doc_text)["betti"]}
