"""Bipartite graphs, independent-set-pair counting, and profile statistics.

The graph file format is line-based: ``left u``, ``right w``, ``edge u w``,
with ``#`` comments.  Vertex order is declaration order.  Vertex names follow
the constant grammar of fact files and may not start with ``@``, the prefix
of generated constants.

A profile of a vertex-subset pair (R', T') records how the edges fall with
respect to it: contained in R' x T', dangling from R', dangling from T', or
excluded.  These are the quantities the reduction's linear system is indexed
by.  This module is a verification oracle: everything is computed by plain
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapExceededError, GraphFormatError
from .evaluate import resolve_cap
from .instances import _CONSTANT_RE

DEFAULT_PAIR_CAP = 24

ProfileKey = tuple[int, int, int, int, int]  # (i, j, c, d, d')


@dataclass(frozen=True)
class BipartiteGraph:
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for u, w in self.edges:
            if u not in self.left or w not in self.right:
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


@dataclass(frozen=True)
class Profile:
    i: int
    j: int
    c: int
    d: int
    d_prime: int
    e: int

    @property
    def key(self) -> ProfileKey:
        return (self.i, self.j, self.c, self.d, self.d_prime)


@dataclass(frozen=True)
class ProfileTable:
    """X counts pairs per profile; Y applies the (2^r-1)/(2^t-1) weights."""

    x: Mapping[ProfileKey, int]
    y: Mapping[ProfileKey, int]
    r: int
    t: int


def parse_graph(text: str) -> BipartiteGraph:
    left: list[str] = []
    right: list[str] = []
    edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("left", "right") and len(parts) == 2:
            # Vertex names become constants of the emitted instances.
            if not _CONSTANT_RE.fullmatch(parts[1]) or parts[1].startswith("@"):
                raise GraphFormatError(f"line {lineno}: bad vertex name {parts[1]!r}")
        if parts[0] == "left" and len(parts) == 2:
            if parts[1] in left or parts[1] in right:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {parts[1]!r}")
            left.append(parts[1])
        elif parts[0] == "right" and len(parts) == 2:
            if parts[1] in left or parts[1] in right:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {parts[1]!r}")
            right.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            u, w = parts[1], parts[2]
            if u not in left or w not in right:
                raise GraphFormatError(f"line {lineno}: unknown endpoint in {line!r}")
            edges.add((u, w))
        else:
            raise GraphFormatError(f"line {lineno}: cannot parse {line!r}")
    return BipartiteGraph(tuple(left), tuple(right), frozenset(edges))


def profile_stats(g: BipartiteGraph, r_sub: Iterable[str], t_sub: Iterable[str]) -> Profile:
    r_set = set(r_sub)
    t_set = set(t_sub)
    if not r_set <= set(g.left):
        raise GraphFormatError("left subset contains vertices outside the graph")
    if not t_set <= set(g.right):
        raise GraphFormatError("right subset contains vertices outside the graph")
    c = d = d_prime = 0
    for u, w in g.edges:
        if u in r_set:
            if w in t_set:
                c += 1
            else:
                d += 1
        elif w in t_set:
            d_prime += 1
    e = g.m - c - d - d_prime
    return Profile(len(r_set), len(t_set), c, d, d_prime, e)


def _edge_masks(g: BipartiteGraph) -> list[tuple[int, int]]:
    """Per edge: (left-vertex bit, right-vertex bit)."""
    left_index = {u: i for i, u in enumerate(g.left)}
    right_index = {w: i for i, w in enumerate(g.right)}
    return [
        (1 << left_index[u], 1 << right_index[w]) for u, w in sorted(g.edges)
    ]


def _check_pair_cap(g: BipartiteGraph, cap: int | None) -> None:
    limit = resolve_cap(cap, DEFAULT_PAIR_CAP)
    total = len(g.left) + len(g.right)
    if total > limit:
        raise CapExceededError(total, limit)


def iter_pairs(g: BipartiteGraph, cap: int | None = None):
    """All (R' mask, T' mask) pairs, as bitmasks over declaration order."""
    _check_pair_cap(g, cap)
    for r_mask in range(1 << len(g.left)):
        for t_mask in range(1 << len(g.right)):
            yield r_mask, t_mask


def independent_pair_count(g: BipartiteGraph, cap: int | None = None) -> int:
    """Number of pairs (R', T') with R' x T' disjoint from the edge set."""
    edge_bits = _edge_masks(g)
    count = 0
    for r_mask, t_mask in iter_pairs(g, cap):
        if all(not (r_mask & ub and t_mask & wb) for ub, wb in edge_bits):
            count += 1
    return count


def _profile(edge_bits: list[tuple[int, int]], r_mask: int, t_mask: int) -> Profile:
    c = d = d_prime = 0
    for ub, wb in edge_bits:
        if r_mask & ub:
            if t_mask & wb:
                c += 1
            else:
                d += 1
        elif t_mask & wb:
            d_prime += 1
    return Profile(
        bin(r_mask).count("1"),
        bin(t_mask).count("1"),
        c,
        d,
        d_prime,
        len(edge_bits) - c - d - d_prime,
    )


def profile_of_masks(g: BipartiteGraph, r_mask: int, t_mask: int) -> Profile:
    return _profile(_edge_masks(g), r_mask, t_mask)


def x_table(g: BipartiteGraph, r: int, t: int) -> ProfileTable:
    """Profile histogram X by pair enumeration, and its weighted variant Y."""
    edge_bits = _edge_masks(g)
    x: dict[ProfileKey, int] = {}
    # Called through this module's global, so that a wrapper installed on
    # bipartite.iter_pairs (the benchmark's pair counter) sees every call.
    for r_mask, t_mask in iter_pairs(g):
        key = _profile(edge_bits, r_mask, t_mask).key
        x[key] = x.get(key, 0) + 1
    n_left, n_right = len(g.left), len(g.right)
    y = {
        (i, j, c, d, dp): ((1 << r) - 1) ** (n_left - i)
        * ((1 << t) - 1) ** (n_right - j)
        * value
        for (i, j, c, d, dp), value in x.items()
    }
    return ProfileTable(x=x, y=y, r=r, t=t)
