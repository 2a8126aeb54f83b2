"""Bipartite graphs, independent-set-pair counting, and profile statistics.

The graph file format is line-based: ``left u``, ``right w``, ``edge u w``,
with ``#`` comments.  Vertex order is declaration order.  Vertex names follow
the constant grammar of fact files and may not start with ``@``, the prefix
of generated constants.

The profile key (i, j, c, d, d') of a vertex-subset pair (R', T') records
the sizes of R' and T' and how the edges fall with respect to them: c
contained in R' x T', d dangling from R' only, d' dangling from T' only;
the rest are excluded: the UR reduction's system is indexed by them.
``independent_pairs``, a fold over the smaller side's subsets, is the one
fast pair count (``qreliab isets``, the PQE formula oracle); ``iter_pairs``,
``independent_pair_count`` and ``x_table`` enumerate every pair, as oracles.
Both reductions weigh each pair by its vertices, ``side_weights`` a side,
and recover pair counts from weighted ones with ``pair_count``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import CapExceededError, GraphFormatError, QReliabError
from .evaluate import resolve_cap
from .instances import CONSTANT_RE

DEFAULT_PAIR_CAP = 24

ProfileKey = tuple[int, int, int, int, int]  # (i, j, c, d, d')


@dataclass(frozen=True)
class BipartiteGraph:
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        left, right = set(self.left), set(self.right)
        if len(left | right) < len(self.left) + len(self.right):
            raise GraphFormatError("a vertex name is declared twice")
        for u, w in self.edges:
            if u not in left or w not in right:
                raise GraphFormatError(f"edge ({u}, {w}) has an undeclared endpoint")

    def __repr__(self) -> str:
        # Edges in declaration order: a frozenset's order follows the hash seed.
        edges = f"frozenset({ordered_edges(self)!r})"
        return f"BipartiteGraph(left={self.left!r}, right={self.right!r}, edges={edges})"

    @property
    def m(self) -> int:
        return len(self.edges)

    @classmethod
    def build(
        cls,
        left: Iterable[str],
        right: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ) -> "BipartiteGraph":
        return cls(tuple(left), tuple(right), frozenset(edges))


def ordered_edges(g: BipartiteGraph) -> list[tuple[str, str]]:
    """The edges in declaration order: by left endpoint, then right endpoint."""
    left_pos = {u: i for i, u in enumerate(g.left)}
    right_pos = {w: i for i, w in enumerate(g.right)}
    return sorted(g.edges, key=lambda e: (left_pos[e[0]], right_pos[e[1]]))


def parse_graph(text: str) -> BipartiteGraph:
    # Each side's names in declaration order, as dict keys for O(1) lookups.
    sides: dict[str, dict[str, None]] = {"left": {}, "right": {}}
    edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in sides and len(parts) == 2:
            name = parts[1]
            # Vertex names become constants of the emitted instances.
            if not CONSTANT_RE.fullmatch(name) or name.startswith("@"):
                raise GraphFormatError(f"line {lineno}: bad vertex name {name!r}")
            if name in sides["left"] or name in sides["right"]:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {name!r}")
            sides[parts[0]][name] = None
        elif parts[0] == "edge" and len(parts) == 3:
            u, w = parts[1], parts[2]
            if u not in sides["left"] or w not in sides["right"]:
                raise GraphFormatError(f"line {lineno}: unknown endpoint in {line!r}")
            edges.add((u, w))
        else:
            raise GraphFormatError(f"line {lineno}: cannot parse {line!r}")
    return BipartiteGraph(tuple(sides["left"]), tuple(sides["right"]), frozenset(edges))


def profile_stats(g: BipartiteGraph, r_sub: Iterable[str], t_sub: Iterable[str]) -> ProfileKey:
    """The profile key (i, j, c, d, d') of the pair of named vertex subsets."""
    r_set = set(r_sub)
    t_set = set(t_sub)
    if not r_set <= set(g.left):
        raise GraphFormatError("left subset contains vertices outside the graph")
    if not t_set <= set(g.right):
        raise GraphFormatError("right subset contains vertices outside the graph")
    r_mask = sum(1 << k for k, u in enumerate(g.left) if u in r_set)
    t_mask = sum(1 << k for k, w in enumerate(g.right) if w in t_set)
    return _profile(_edge_masks(g), r_mask, t_mask)


def _edge_masks(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Per edge: (left-vertex bit, right-vertex bit)."""
    left_index = {u: i for i, u in enumerate(g.left)}
    right_index = {w: i for i, w in enumerate(g.right)}
    return [(1 << left_index[u], 1 << right_index[w]) for u, w in g.edges]


def _check_pair_cap(vertices: int, cap: int | None) -> None:
    """Raise CapExceededError if the subsets of ``vertices`` vertices pass the pair cap."""
    limit = resolve_cap(cap, DEFAULT_PAIR_CAP)
    if vertices > limit:
        raise CapExceededError(vertices, limit)


def iter_pairs(g: BipartiteGraph, cap: int | None = None):
    """All (R' mask, T' mask) pairs, as bitmasks over declaration order."""
    _check_pair_cap(len(g.left) + len(g.right), cap)
    for r_mask in range(1 << len(g.left)):
        for t_mask in range(1 << len(g.right)):
            yield r_mask, t_mask


def independent_pair_count(g: BipartiteGraph) -> int:
    """Number of pairs (R', T') with R' x T' disjoint from the edge set."""
    edge_bits = _edge_masks(g)
    count = 0
    for r_mask, t_mask in iter_pairs(g):
        if all(not (r_mask & ub and t_mask & wb) for ub, wb in edge_bits):
            count += 1
    return count


def independent_pairs(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Independent pairs (no edge contained) per (|R'|, |T'|), by a fold
    over the subsets S of the smaller side alone.  The pairs with S on that
    side are S with any subset of the other side's vertices outside N(S),
    the neighbours of S, so a histogram of the subsets by (|S|, |N(S)|)
    expands into the pair counts through binomial coefficients.  The pair
    cap bounds the smaller side."""
    flip = len(g.right) < len(g.left)  # ties enumerate the left side
    small, other = (g.right, g.left) if flip else (g.left, g.right)
    _check_pair_cap(len(small), None)
    bit = {v: 1 << k for k, v in enumerate(other)}
    adjacent = dict.fromkeys(small, 0)
    for edge in g.edges:
        v, w = edge[::-1] if flip else edge
        adjacent[v] |= bit[w]
    masks = list(adjacent.values())
    # N(S) = N(S & low) | N(S & high): one OR per subset, and lists of
    # 2**(len(small) / 2) entries rather than 2**len(small)
    half = len(masks) // 2
    low_neighbours, low_sizes = _subset_neighbours(masks[:half])
    histogram: Counter[tuple[int, int]] = Counter()
    for neighbours, size in zip(*_subset_neighbours(masks[half:])):
        blocked = [(n | neighbours).bit_count() for n in low_neighbours]
        histogram.update(zip([s + size for s in low_sizes], blocked))
    counts: dict[tuple[int, int], int] = {}
    for (size, blocked), count in histogram.items():
        outside = len(other) - blocked
        for k in range(outside + 1):
            key = (k, size) if flip else (size, k)
            counts[key] = counts.get(key, 0) + count * comb(outside, k)
    return counts


def _subset_neighbours(masks: list[int]) -> tuple[list[int], list[int]]:
    """For every subset S of the vertices with neighbour ``masks``, N(S) as
    a mask and |S|: S with a vertex v added has N(S) | N(v)."""
    neighbours, sizes = [0], [0]
    for mask in masks:
        neighbours += [n | mask for n in neighbours]
        sizes += [s + 1 for s in sizes]
    return neighbours, sizes


def _profile(edge_bits: list[tuple[int, int]], r_mask: int, t_mask: int) -> ProfileKey:
    """The profile key of the pair of masks, the only code that counts c,
    d and d'."""
    c = d = d_prime = 0
    for ub, wb in edge_bits:
        if r_mask & ub:
            if t_mask & wb:
                c += 1
            else:
                d += 1
        elif t_mask & wb:
            d_prime += 1
    return r_mask.bit_count(), t_mask.bit_count(), c, d, d_prime


def x_table(g: BipartiteGraph) -> dict[ProfileKey, int]:
    """The profile histogram X: the number of pairs (R', T') per profile key."""
    edge_bits = _edge_masks(g)
    x: dict[ProfileKey, int] = {}
    # Called through this module's global, so that a wrapper installed on
    # bipartite.iter_pairs (the benchmark's pair counter) sees every call.
    for r_mask, t_mask in iter_pairs(g):
        key = _profile(edge_bits, r_mask, t_mask)
        x[key] = x.get(key, 0) + 1
    return x


def side_weights(inside: int, outside: int, n: int) -> list[int]:
    """inside**k * outside**(n - k) for k = 0..n: the weight of a side of n
    vertices whose k vertices in a pair weigh ``inside`` each and whose
    others weigh ``outside``.  Both reductions build their pair weights and
    their row and column nodes with it."""
    return [inside**k * outside ** (n - k) for k in range(n + 1)]


def pair_count(weighted: int, weight: int) -> int:
    """The number of pairs whose weights, each ``weight``, sum to
    ``weighted``; raises QReliabError if ``weight`` does not divide it."""
    count, rest = divmod(weighted, weight)
    if rest:
        raise QReliabError("non-integral division during count recovery")
    return count
