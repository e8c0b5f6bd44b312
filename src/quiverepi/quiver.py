"""Finite acyclic quivers, dimension vectors and vertex block layouts.

The text format is line oriented: one `vertices` line, then `arrow` lines,
`#` comments allowed anywhere.  Vertex order is declaration order and every
matrix block convention downstream follows that single order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class QuiverError(Exception):
    pass


class ParseError(QuiverError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateIdentifier(QuiverError):
    pass


class CycleError(QuiverError):
    def __init__(self, cycle: list[str]):
        super().__init__(f"quiver contains a cycle through arrows {cycle}")
        self.cycle = cycle


class KeyMismatch(QuiverError):
    pass


_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver with named vertices and arrows.

    Acyclicity is enforced unless require_acyclic=False.  Two quivers with
    loops use it: the Morita-shape output of glued_quiver, which never feeds
    a representation, and the one-vertex quiver with one loop per image on
    which the specialization trials read a hom off the standard layout, its
    End over the path algebra being the commutant of those images.
    """

    def __init__(self, vertices, arrows, require_acyclic: bool = True):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise DuplicateIdentifier(f"duplicate vertex {v!r}")
            seen.add(v)
        vertex_set = set(self.vertices)
        seen_arrows = set()
        for a in self.arrows:
            if a.name in seen_arrows:
                raise DuplicateIdentifier(f"duplicate arrow {a.name!r}")
            seen_arrows.add(a.name)
            if a.source not in vertex_set:
                raise QuiverError(f"arrow {a.name!r} has undeclared source {a.source!r}")
            if a.target not in vertex_set:
                raise QuiverError(f"arrow {a.name!r} has undeclared target {a.target!r}")
        self._arrow_by_name = {a.name: a for a in self.arrows}
        if require_acyclic:
            cycle = find_cycle(self)
            if cycle is not None:
                raise CycleError(cycle)

    def arrow(self, name: str) -> Arrow:
        return self._arrow_by_name[name]

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_by_name

    def drop_arrow(self, name: str) -> "Quiver":
        """The same quiver without one arrow."""
        if name not in self._arrow_by_name:
            raise KeyError(name)
        return Quiver(self.vertices, [a for a in self.arrows if a.name != name],
                      require_acyclic=False)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        arrs = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver([{', '.join(self.vertices)}], [{arrs}])"


def find_cycle(q: Quiver) -> list[str] | None:
    """Return the arrow names of one directed cycle, or None if acyclic.

    A depth-first search on an explicit stack, from the roots and along the
    out-arrows in declared order, skipping finished vertices.  An arrow back
    to a vertex on the current path closes the cycle of the path's arrows
    from that vertex on, so a loop gives [loop]."""
    out: dict[str, list[Arrow]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        out[a.source].append(a)
    done: set[str] = set()
    for root in q.vertices:
        if root in done:
            continue
        # (vertex, the arrow into it, its out-arrows not yet followed)
        stack = [(root, None, iter(out[root]))]
        depth = {root: 0}  # vertex on the current path -> its stack index
        while stack:
            v, _, arrows = stack[-1]
            a = next(arrows, None)
            if a is None:
                stack.pop()
                del depth[v]
                done.add(v)
            elif a.target in depth:
                return [name for _, name, _ in stack[depth[a.target] + 1:]] + [a.name]
            elif a.target not in done:
                depth[a.target] = len(stack)
                stack.append((a.target, a.name, iter(out[a.target])))
    return None


def is_acyclic(q: Quiver) -> tuple[bool, list[str] | None]:
    """(True, None) for acyclic quivers, else (False, witness cycle)."""
    cycle = find_cycle(q)
    return (cycle is None), cycle


def check_dims(q: Quiver, dims: dict[str, int]) -> None:
    """Validate a dimension vector against a quiver's vertex set."""
    if set(dims) != set(q.vertices):
        missing = sorted(set(q.vertices) - set(dims))
        extra = sorted(set(dims) - set(q.vertices))
        raise KeyMismatch(f"dimension vector keys mismatch (missing {missing}, extra {extra})")
    for v, d in dims.items():
        if not isinstance(d, int) or d < 0:
            raise KeyMismatch(f"dimension at vertex {v!r} must be a nonnegative integer")


@dataclass(frozen=True)
class BlockLayout:
    """Prefix-sum block offsets of a dimension vector in declared vertex order.

    Vertex v occupies the 1-based coordinate range [offsets[v]+1,
    offsets[v]+sizes[v]]; the ranges partition [1, total].
    """

    order: tuple[str, ...]
    offsets: dict[str, int]
    sizes: dict[str, int]
    total: int

    def block_range(self, v: str) -> range:
        """0-based coordinate range of vertex v."""
        return range(self.offsets[v], self.offsets[v] + self.sizes[v])


def block_layout(q: Quiver, dims: dict[str, int]) -> BlockLayout:
    check_dims(q, dims)
    offsets = {}
    acc = 0
    for v in q.vertices:
        offsets[v] = acc
        acc += dims[v]
    return BlockLayout(order=q.vertices, offsets=offsets, sizes=dict(dims), total=acc)


def directive_lines(text: str):
    """(line number, raw line, its stripped text before any `#`) for every
    line of text that is not blank once its comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, raw, line


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver text format.

    Grammar per line: `vertices <id> ...` (exactly once, first), then zero
    or more `arrow <id> <src> <tgt>`.  `#` starts a comment.
    """
    vertices: list[str] | None = None
    arrows: dict[str, Arrow] = {}
    for lineno, raw, line in directive_lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "vertices":
            if vertices is not None:
                raise ParseError("second 'vertices' line", lineno)
            if len(tokens) < 2:
                raise ParseError("'vertices' line needs at least one vertex", lineno)
            vertices = tokens[1:]
            declared = set()
            for v in vertices:
                if not _IDENT.match(v):
                    raise ParseError(f"bad vertex identifier {v!r}", lineno,
                                     raw.index(v) + 1)
                if v in declared:
                    raise DuplicateIdentifier(f"duplicate vertex {v!r} on line {lineno}")
                declared.add(v)
        elif head == "arrow":
            if vertices is None:
                raise ParseError("'arrow' before 'vertices'", lineno)
            if len(tokens) != 4:
                raise ParseError("'arrow' needs: arrow <id> <src> <tgt>", lineno)
            name, src, tgt = tokens[1:]
            for tok in (name, src, tgt):
                if not _IDENT.match(tok):
                    raise ParseError(f"bad identifier {tok!r}", lineno, raw.index(tok) + 1)
            if name in arrows:
                raise DuplicateIdentifier(f"duplicate arrow {name!r} on line {lineno}")
            if src not in declared:
                raise ParseError(f"undeclared source vertex {src!r}", lineno)
            if tgt not in declared:
                raise ParseError(f"undeclared target vertex {tgt!r}", lineno)
            arrows[name] = Arrow(name, src, tgt)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    return Quiver(vertices or [], arrows.values())


def quiver_to_text(q: Quiver) -> str:
    """Canonical serialization; parse_quiver(quiver_to_text(q)) == q."""
    lines = []
    if q.vertices:
        lines.append("vertices " + " ".join(q.vertices))
    for a in q.arrows:
        lines.append(f"arrow {a.name} {a.source} {a.target}")
    return "\n".join(lines) + ("\n" if lines else "")
