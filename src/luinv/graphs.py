"""Invariants as colored directed multigraphs.

A grade-m label with k entries is a graph on vertices 1..m with one edge
per (color, vertex): color j draws an edge with head at l and tail at
sigma_j(l).  A graph is therefore its label's PermTuple, one color per
entry.  Relabeling vertices is simultaneous conjugation, so unlabeled
graphs are exactly the conjugation classes, and ``canonical_graph`` is the
canonical label's key (``canonical_form``) as bytes.

``expressible_ordering`` searches for a cyclic vertex order in which every
color's cycles sit on contiguous arcs traversed consecutively (either
direction); such an order is sufficient to write the invariant with partial
traces, matrix/tensor products and partial transposes.  Every graph with
m <= 3 admits one; from m = 4 on some do not.
"""

from __future__ import annotations

import itertools
import json

from ._record import as_int
from .perms import Perm, PermTuple, _check_grade, canonical_form, orbit_partition

_PALETTE = ("black", "red", "blue", "green", "orange", "purple", "brown", "cyan")


def build_graph(sigma: PermTuple) -> PermTuple:
    """A label is its graph: vertices 1..m, color j drawn by sigma_j (use
    embed() first to draw a pure label with its loops of the last color)."""
    return sigma


def canonical_graph(g: PermTuple) -> bytes:
    """Canonical byte string under vertex relabeling, preserving colors and
    directions: the canonical key of the graph's label (canonical_form), one
    byte per image.  Equal strings iff the graphs are isomorphic."""
    return bytes(canonical_form(g).rep.key())


def connected_components(g: PermTuple) -> list[tuple[PermTuple, tuple[int, ...]]]:
    """Components of the underlying undirected multigraph over all colors.

    Returns (subgraph, vertices) pairs; each subgraph has its vertices
    relabeled 1..m_i in increasing order of the original labels.  The vertex
    partition equals the orbit partition of the group generated by the
    colors, so the invariant factorizes over the components.
    """
    out = []
    for comp in orbit_partition(g):
        index = {v: i + 1 for i, v in enumerate(comp)}
        colors = tuple(
            Perm(tuple(index[p(v)] for v in comp)) for p in g.perms
        )
        out.append((PermTuple(len(comp), colors), comp))
    return out


def dot_export(g: PermTuple) -> str:
    """Deterministic DOT text: one node per vertex, one edge per (color,
    vertex) drawn tail -> head, entry j in _PALETTE[j % len(_PALETTE)]."""
    lines = ["digraph invariant {"]
    for v in range(1, g.m + 1):
        lines.append(f'  v{v} [shape=circle label="{v}"];')
    for j, p in enumerate(g.perms):
        color = _PALETTE[j % len(_PALETTE)]
        for l in range(1, g.m + 1):
            lines.append(f"  v{p(l)} -> v{l} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: PermTuple) -> str:
    return json.dumps({"m": g.m, "colors": [list(p.images) for p in g.perms]})


def graph_from_json(text: str) -> PermTuple:
    try:
        doc = json.loads(text)
        m = _json_int(doc["m"])
        colors = tuple(Perm(tuple(_json_int(i) for i in imgs)) for imgs in doc["colors"])
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    if m < 1:
        raise ValueError(f"malformed graph JSON: grade {m} is not positive")
    return PermTuple(m, colors)


def _json_int(x) -> int:
    if as_int(x) is None:  # no floats, booleans or strings
        raise TypeError(f"{x!r} is not an integer")
    return x


def _cycle_fits(cycle: tuple[int, ...], position: dict[int, int], m: int) -> bool:
    """Whether the cycle occupies a contiguous arc traversed consecutively in
    the cyclic order (forward or backward).  Fixed points always fit: the
    identity-insertion trick makes them transparent to the running product."""
    if len(cycle) == 1:
        return True
    diffs = [
        (position[cycle[(i + 1) % len(cycle)]] - position[cycle[i]]) % m
        for i in range(len(cycle))
    ]
    forward = sum(d != 1 for d in diffs) <= 1
    backward = sum(d != m - 1 for d in diffs) <= 1
    return forward or backward


def expressible_ordering(g: PermTuple) -> tuple[int, ...] | None:
    """Search all cyclic vertex orders (vertex 1 pinned first, quotienting
    rotations; reflections stay in the search space) for one in which every
    color's cycles fit per _cycle_fits.  Returns the first such order, or
    None.  Refused above MAX_GRADE."""
    _check_grade(g.m)
    cycles = [p.cycles() for p in g.perms]
    for rest in itertools.permutations(range(2, g.m + 1)):
        order = (1,) + rest
        position = {v: i for i, v in enumerate(order)}
        if all(
            _cycle_fits(cyc, position, g.m) for col in cycles for cyc in col
        ):
            return order
    return None
