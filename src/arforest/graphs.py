"""Core data types: graphs with bitset adjacency, linear forests, edge colorings.

Vertices are 0-based contiguous integers.  Edges are normalized as (min, max)
tuples, and an edge coloring stores one color per edge in lex edge order.
All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed graph6 text or coloring file.  Carries a byte offset."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def lex_edges(n: int) -> list[Edge]:
    """All edges of K_n in lexicographic (u, v) order with u < v."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on {0..n-1}, one adjacency bitmask per vertex."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {u} has out-of-range bits")
            if row >> u & 1:
                raise ValueError(f"vertex {u} has a self-loop")
            rest = row
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            u, v = norm_edge(u, v)
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete_graph(n: int) -> Graph:
    """K_n; rejects n = 0."""
    if n < 1:
        raise ValueError("complete_graph requires n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def common_neighborhood(g: Graph, vertices: Iterable[int]) -> set[int]:
    """Vertices outside the given set adjacent to every member of it.

    The empty set has the whole vertex set as its common neighborhood.
    """
    vs = set(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    if not vs:
        return set(range(g.n))
    mask = (1 << g.n) - 1
    for v in vs:
        mask &= g.adj[v]
    for v in vs:
        mask &= ~(1 << v)
    return set(_iter_bits(mask))


@dataclass(frozen=True)
class LinearForest:
    """A disjoint union of paths, stored as a nonincreasing list of orders."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a linear forest needs at least one path")
        if any(t < 2 for t in self.parts):
            raise ValueError("every path must have at least 2 vertices")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be nonincreasing; use from_parts()")

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "LinearForest":
        return cls(tuple(sorted(parts, reverse=True)))

    @classmethod
    def parse(cls, spec: str) -> "LinearForest":
        """Parse a comma-separated part list such as "5,4" or "3,3,2"."""
        try:
            parts = [int(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad forest spec {spec!r}") from exc
        if not parts:
            raise ValueError(f"bad forest spec {spec!r}")
        return cls.from_parts(parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def num_vertices(self) -> int:
        return sum(self.parts)

    @property
    def half_sum(self) -> int:
        """Sum of floor(t/2) over the path orders."""
        return sum(t // 2 for t in self.parts)

    @property
    def num_edges(self) -> int:
        return sum(t - 1 for t in self.parts)

    @property
    def even_count(self) -> int:
        return sum(1 for t in self.parts if t % 2 == 0)

    @property
    def all_odd(self) -> bool:
        return self.even_count == 0

    def spec_string(self) -> str:
        return ",".join(str(t) for t in self.parts)

    def __str__(self) -> str:
        return "+".join(f"P{t}" for t in self.parts)


def _edge_index(n: int, u: int, v: int) -> int:
    """Position of edge (u, v), 0 <= u < v < n, in lex_edges(n)."""
    return u * n - u * (u + 1) // 2 + v - u - 1


class EdgeColoring:
    """A surjective coloring of the edges of K_n with color ids {0..m-1}.

    It is built from, and stores, colors: one color per edge of K_n in lex
    edge order.  color_of is a read-only edge -> color view of it.
    """

    __slots__ = ("n", "colors", "m")

    def __init__(self, n: int, colors: Iterable[int]):
        if n < 1:
            raise ValueError("coloring needs n >= 1")
        colors = tuple(colors)
        if len(colors) != n * (n - 1) // 2:
            raise ValueError(f"K_{n} has {n * (n - 1) // 2} edges but "
                             f"{len(colors)} colors were given")
        ids = set(colors)
        m = len(ids)
        # m distinct ids inside 0..m-1 are all of 0..m-1
        if not ids.issubset(range(m)):
            raise ValueError("color ids must be dense in {0..m-1}")
        self.n = n
        self.colors = colors
        self.m = m

    @property
    def color_of(self) -> Mapping[Edge, int]:
        return _ColorView(self)

    def color(self, u: int, v: int) -> int:
        """The color of edge uv; KeyError if an endpoint is not in 0..n-1,
        ValueError if u == v."""
        u, v = norm_edge(u, v)
        if u < 0 or v >= self.n:
            raise KeyError((u, v))
        return self.colors[_edge_index(self.n, u, v)]

    def matrix(self) -> list[list[int]]:
        """The symmetric n x n color matrix, -1 on the diagonal."""
        n = self.n
        col = [[-1] * n for _ in range(n)]
        it = iter(self.colors)
        for u in range(n):
            row = col[u]
            for v in range(u + 1, n):
                row[v] = col[v][u] = next(it)
        return col

    def color_classes(self) -> list[list[Edge]]:
        classes: list[list[Edge]] = [[] for _ in range(self.m)]
        for e, c in zip(lex_edges(self.n), self.colors):
            classes[c].append(e)
        return classes

    def canonical(self) -> "EdgeColoring":
        """Relabel color ids in first-occurrence order of the lex edge order.

        Colorings equal up to color relabeling compare equal after this.
        """
        relabel: dict[int, int] = {}
        return EdgeColoring(
            self.n, [relabel.setdefault(c, len(relabel)) for c in self.colors])

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeColoring)
                and self.n == other.n and self.colors == other.colors)

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n}, m={self.m})"

    @classmethod
    def monochromatic(cls, n: int) -> "EdgeColoring":
        return cls(n, [0] * (n * (n - 1) // 2))

    @classmethod
    def all_rainbow(cls, n: int) -> "EdgeColoring":
        return cls(n, range(n * (n - 1) // 2))

    @classmethod
    def from_assignment(cls, n: int, colors: Iterable[int]) -> "EdgeColoring":
        """The same as EdgeColoring(n, colors)."""
        return cls(n, colors)

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        for (u, v), c in zip(lex_edges(self.n), self.colors):
            lines.append(f"{u} {v} {c}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EdgeColoring":
        lines = text.splitlines(keepends=True)
        if not lines:
            raise GraphFormatError("empty coloring file", 0)
        header = lines[0].split()
        if len(header) != 2:
            raise GraphFormatError("header must be 'n m'", 0)
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise GraphFormatError("header must be two integers", 0)
        if n < 1:
            raise GraphFormatError("coloring needs n >= 1", 0)
        ne = n * (n - 1) // 2
        # a file with fewer lines than K_n has edges is rejected before the
        # color list, whose size grows as n^2, is allocated
        if len(lines) - 1 < ne:
            raise GraphFormatError(
                f"K_{n} needs {ne} edge lines but {len(lines) - 1} lines "
                f"follow the header", len(text))
        offset = len(lines[0])
        colors = [-1] * ne
        for line in lines[1:]:
            stripped = line.strip()
            if stripped:
                toks = stripped.split()
                if len(toks) != 3:
                    raise GraphFormatError("edge line must be 'u v c'", offset)
                try:
                    u, v, c = int(toks[0]), int(toks[1]), int(toks[2])
                except ValueError:
                    raise GraphFormatError("edge line must be integers", offset)
                if not (0 <= u < n and 0 <= v < n and u < v):
                    raise GraphFormatError(
                        f"bad edge ({u},{v}) for n={n}", offset)
                i = _edge_index(n, u, v)
                if colors[i] >= 0:
                    raise GraphFormatError(f"duplicate edge ({u},{v})", offset)
                if not 0 <= c < m:
                    raise GraphFormatError(f"color {c} outside 0..{m-1}", offset)
                colors[i] = c
            offset += len(line)
        missing = colors.count(-1)
        if missing:
            raise GraphFormatError(
                f"K_{n} needs {ne} edge lines but {ne - missing} were given",
                offset)
        # every color lies in 0..m-1, so m distinct colors are dense
        present = len(set(colors))
        if present != m:
            raise GraphFormatError(
                f"header claims {m} colors but {present} are present", 0)
        return cls(n, colors)


class _ColorView(Mapping):
    """Read-only edge -> color mapping over a coloring's flat tuple."""

    __slots__ = ("_coloring",)

    def __init__(self, coloring: EdgeColoring):
        self._coloring = coloring

    def __getitem__(self, e: Edge) -> int:
        c = self._coloring
        if not (isinstance(e, tuple) and len(e) == 2
                and 0 <= e[0] < e[1] < c.n):
            raise KeyError(e)
        return c.colors[_edge_index(c.n, *e)]

    def __iter__(self) -> Iterator[Edge]:
        return iter(lex_edges(self._coloring.n))

    def __len__(self) -> int:
        return len(self._coloring.colors)


@dataclass(frozen=True)
class Embedding:
    """A placement of a linear forest into a host, one vertex sequence per path."""

    forest: LinearForest
    paths: tuple[tuple[int, ...], ...]
    used_colors: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if len(self.paths) != self.forest.k:
            raise ValueError("one vertex sequence per path part required")
        seen: set[int] = set()
        for t, seq in zip(self.forest.parts, self.paths):
            if len(seq) != t:
                raise ValueError("sequence length must match path order")
            for v in seq:
                if v in seen:
                    raise ValueError(f"vertex {v} reused across parts")
                seen.add(v)
        if self.used_colors is not None:
            if len(self.used_colors) != self.forest.num_edges:
                raise ValueError("one color per used edge required")

    @property
    def used_edges(self) -> tuple[Edge, ...]:
        out: list[Edge] = []
        for seq in self.paths:
            for a, b in itertools.pairwise(seq):
                out.append(norm_edge(a, b))
        return tuple(out)

    def to_json_dict(self) -> dict:
        d = {"forest": self.forest.spec_string(),
             "paths": [list(seq) for seq in self.paths],
             "edges": [list(e) for e in self.used_edges]}
        if self.used_colors is not None:
            d["colors"] = list(self.used_colors)
        return d


# --- graph6 codec ---------------------------------------------------------

def graph6_encode(g: Graph) -> str:
    """Encode in the compact 6-bit printable-ASCII graph format."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError("graph6 encoding supported up to n = 258047")
    bits: list[int] = []
    for v in range(1, n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        body.append(val + 63)
    return "".join(chr(c) for c in head + body)


def graph6_decode(text: str) -> Graph:
    """Decode a single graph6 line; raises GraphFormatError with byte offset."""
    s = text.rstrip("\n")
    if not s:
        raise GraphFormatError("empty graph6 text", 0)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"invalid graph6 character {ch!r}", i)
    pos = 0
    if ord(s[0]) == 126:
        if len(s) < 4 or ord(s[1]) == 126:
            raise GraphFormatError("unsupported or truncated graph6 header", 0)
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - pos < nbytes:
        raise GraphFormatError(
            f"truncated payload: need {nbytes} bytes, have {len(s) - pos}",
            len(s))
    if len(s) - pos > nbytes:
        raise GraphFormatError("trailing bytes after payload", pos + nbytes)
    bits: list[int] = []
    for i in range(pos, pos + nbytes):
        val = ord(s[i]) - 63
        for shift in range(5, -1, -1):
            bits.append(val >> shift & 1)
    adj = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(adj))
