"""Graph file parsing (METIS and edge-list formats) and the two benchmark
weight-assignment families."""

from __future__ import annotations

import logging
import random
from bisect import bisect_left
from pathlib import Path

from .graph import Graph, build_graph, replace_weights

log = logging.getLogger(__name__)

WEIGHT_RANGE = 200  # both weight families produce weights in [1, 200]
FORMATS = ("metis", "edgelist")
WEIGHT_MODES = ("file", "family-a", "family-b")


class ParseError(ValueError):
    """Malformed graph file; message carries the offending line number."""


def parse_metis(text: str) -> tuple[Graph, list[int]]:
    """Parse a METIS adjacency file into a Graph plus original 1-based ids.

    Header is "n m [fmt]" with fmt 0 (unweighted; weights default to 1) or
    10 (leading vertex weight per line). '%' lines are comments. Neighbor
    lists are 1-based and must be symmetric; a neighbor repeated within one
    line counts once.

    One pass builds the final adjacency by transposition: vertex v is appended
    to the list of every neighbor it names, so each list comes out sorted.
    Row v's neighbors below v must then equal the list built so far for v,
    which holds exactly the earlier rows that named v; every row matching is
    the same as the input being symmetric.
    """
    header: list[str] | None = None
    header_line = 0
    row_lines: list[int] = []  # the line number of each vertex line
    rows: list[str] = []  # its text, cleared once parsed
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("%"):
            continue
        if header is None:
            if not stripped:
                continue
            header = stripped.split()
            header_line = lineno
        else:
            row_lines.append(lineno)
            rows.append(stripped)

    if header is None:
        raise ParseError("empty file: missing header")
    if len(header) not in (2, 3):
        raise ParseError(f"line {header_line}: header must be 'n m' or 'n m fmt'")
    try:
        n, m = int(header[0]), int(header[1])
        fmt = int(header[2]) if len(header) == 3 else 0
    except ValueError as exc:
        raise ParseError(f"line {header_line}: non-integer header token") from exc
    if fmt not in (0, 10):
        raise ParseError(f"line {header_line}: unsupported fmt {fmt} (expected 0 or 10)")

    # Trailing blank lines are tolerated; missing vertex lines are not.
    while len(rows) > n and not rows[-1]:
        rows.pop()
        row_lines.pop()
    if len(rows) != n:
        raise ParseError(f"expected {n} vertex lines, found {len(rows)}")

    weights = [1] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]
    one_based = (1).__add__
    entries = 0
    asymmetric: list[tuple[int, int]] = []  # (v, u): v names u, u does not name v
    for v, lineno in enumerate(row_lines):
        row = rows[v]
        rows[v] = ""  # release the text while the adjacency grows
        try:
            values = list(map(int, row.split()))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer token") from exc
        if fmt == 10:
            if not values:
                raise ParseError(f"line {lineno}: missing vertex weight")
            if values[0] < 1:
                raise ParseError(f"line {lineno}: vertex weight must be positive")
            weights[v] = values[0]
            del values[0]
        nbs = sorted(set(values))
        k = bisect_left(nbs, v + 1)
        if nbs and (nbs[0] < 1 or nbs[-1] > n or (k < len(nbs) and nbs[k] == v + 1)):
            _reject_neighbor(values, v, n, lineno)
        below = nbs[:k]
        if below != list(map(one_based, adjacency[v])):
            asymmetric.append(_first_asymmetry(below, adjacency[v], v))
        for u in nbs:
            adjacency[u - 1].append(v)
        entries += len(nbs)

    if asymmetric:
        v, u = min(asymmetric)
        raise ParseError(f"line {row_lines[v]}: vertex {u + 1} missing reciprocal neighbor {v + 1}")
    if entries // 2 != m:
        raise ParseError(f"header claims {m} edges, adjacency lists encode {entries // 2}")

    return Graph(n, adjacency, weights, m), list(range(1, n + 1))


def _reject_neighbor(values: list[int], v: int, n: int, lineno: int) -> None:
    """Raise for the first neighbor id on vertex v's line that is out of range
    or v itself."""
    for u in values:
        if not 1 <= u <= n:
            raise ParseError(f"line {lineno}: neighbor {u} out of range 1..{n}")
        if u == v + 1:
            raise ParseError(f"line {lineno}: self-loop on vertex {u}")


def _first_asymmetry(below: list[int], earlier: list[int], v: int) -> tuple[int, int]:
    """Smallest (x, y) such that x names y but y does not name x, among the
    pairs of v with a smaller vertex. `below` holds v's 1-based neighbors
    under v; `earlier` the 0-based earlier vertices that named v."""
    named = {u - 1 for u in below}
    unreturned = [x for x in earlier if x not in named]
    if unreturned:
        return unreturned[0], v
    named_back = set(earlier)
    return v, min(u for u in named if u not in named_back)


def parse_edgelist(text: str) -> tuple[Graph, list[int]]:
    """Parse "u v" edge lines into a Graph plus the original vertex ids.

    Ids are arbitrary non-negative integers, densely renumbered by first
    appearance. '#' lines are comments; duplicate edges collapse; self-loops
    are dropped with a warning. Weights default to 1.
    """
    index: dict[int, int] = {}
    ids: list[int] = []
    edges: list[tuple[int, int]] = []

    def dense(original: int) -> int:
        mapped = index.get(original)
        if mapped is None:
            mapped = len(ids)
            index[original] = mapped
            ids.append(original)
        return mapped

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {len(tokens)} tokens")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer vertex id") from exc
        if a < 0 or b < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if a == b:
            log.warning("line %d: dropping self-loop on vertex %d", lineno, a)
            dense(a)
            continue
        edges.append((dense(a), dense(b)))

    n = len(ids)
    return build_graph(n, edges, [1] * n), ids


def check_source(
    fmt: str = "metis", weight_mode: str = "file", weight_seed: int | None = None
) -> None:
    """Raise ValueError unless `fmt` is one of FORMATS, `weight_mode` one of
    WEIGHT_MODES, and a weight seed is given exactly when the mode is family-b."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {weight_mode!r} (expected one of {WEIGHT_MODES})")
    if weight_mode == "family-b" and weight_seed is None:
        raise ValueError("family-b weights need a seed, e.g. 'family-b:1'")
    if weight_mode != "family-b" and weight_seed is not None:
        raise ValueError(f"weight mode {weight_mode!r} takes no seed")


def load_graph(
    path: str, fmt: str = "metis", weight_mode: str = "file", weight_seed: int | None = None
) -> tuple[Graph, list[int]]:
    """Read and parse a graph file ("metis" or "edgelist"), then apply the
    weight mode: "file" keeps the parsed weights, "family-a" keys them to the
    original ids, "family-b" draws them from `weight_seed`. Arguments that
    `check_source` rejects raise ValueError before the file is read."""
    check_source(fmt, weight_mode, weight_seed)
    text = Path(path).read_text()
    g, ids = parse_metis(text) if fmt == "metis" else parse_edgelist(text)
    if weight_mode == "family-a":
        g = assign_weights_family_a(g, ids)
    elif weight_mode == "family-b":
        g = assign_weights_family_b(g, weight_seed)
    return g, ids


def to_metis(g: Graph) -> str:
    """Serialize a Graph in METIS form with vertex weights (fmt 10)."""
    out = [f"{g.n} {g.m} 10"]
    for v in range(g.n):
        row = [str(g.weights[v])]
        row.extend(str(u + 1) for u in g.adjacency[v])
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def assign_weights_family_a(g: Graph, ids: list[int]) -> Graph:
    """Deterministic weights keyed to the original 1-based file ids:
    ((id - 1) mod 200) + 1."""
    if len(ids) != g.n:
        raise ValueError(f"expected {g.n} ids, got {len(ids)}")
    return replace_weights(g, [(i - 1) % WEIGHT_RANGE + 1 for i in ids])


def assign_weights_family_b(g: Graph, seed: int) -> Graph:
    """Seeded uniform random weights in [1, 200]."""
    rng = random.Random(seed)
    return replace_weights(g, [rng.randint(1, WEIGHT_RANGE) for _ in range(g.n)])
