"""File formats, planar embedding of abstract graphs, and corpus generation.

Three graph formats are understood:

* rotation-text - the native, hand-writable format.  Line 1 holds the
  vertex count n; lines 2..n+1 hold each vertex's neighbors in clockwise
  order; an optional ``outer: v0 v1 ...`` line names the outer face walk;
  an optional ``covers:`` section lists matched color pairs per edge, one
  line ``u v: c1>c1' c2>c2' ...`` each.  Blank lines and ``#`` comments are
  ignored.
* graph6 - the usual printable encoding of an abstract graph; parsing
  embeds it (small inputs only).
* planar code - the binary rotation-system format; its stored neighbor
  orders are taken as the embedding.

Small corpus sizes come from Read's orderly descent from K_n.  networkx is
imported only to embed abstract graphs, for a connectivity floor above 1,
and for sampled corpus sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .cover import Cover, make_cover
from .plane_graph import PlaneGraph, build_from_rotation
from .structure import class_membership

if TYPE_CHECKING:
    import networkx as nx


class DocumentError(Exception):
    pass


class DocumentSyntaxError(DocumentError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at {offset})")
        self.offset = offset


class NotPlanar(DocumentError):
    pass


class TooLargeToEmbed(DocumentError):
    pass


@dataclass
class GraphDocument:
    """A parsed input file: format tag, payload, and optional extras."""

    format: str  # "rotation-text" | "graph6" | "planar-code"
    vertex_count: int
    rotations: Optional[list[list[int]]] = None   # rotation-text / planar-code
    edges: Optional[list[tuple[int, int]]] = None  # graph6
    outer_hint: Optional[list[int]] = None
    cover_pairs: dict[tuple[int, int], list[tuple[int, int]]] = field(
        default_factory=dict)


# -- rotation-text ------------------------------------------------------------


def parse_rotation_text(text: str) -> GraphDocument:
    lines = []
    for i, raw in enumerate(text.splitlines()):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i + 1, stripped))
    if not lines:
        raise DocumentSyntaxError("empty document")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise DocumentSyntaxError("first line must be the vertex count", lineno)
    if n < 1:
        raise DocumentSyntaxError("vertex count must be positive", lineno)
    if len(lines) < 1 + n:
        raise DocumentSyntaxError(f"expected {n} rotation lines", lineno)
    rotations: list[list[int]] = []
    for lineno, body in lines[1:1 + n]:
        try:
            rotations.append([int(tok) for tok in body.split()])
        except ValueError:
            raise DocumentSyntaxError("rotation line must hold integers", lineno)
    doc = GraphDocument("rotation-text", n, rotations=rotations)
    rest = lines[1 + n:]
    idx = 0
    if idx < len(rest) and rest[idx][1].startswith("outer:"):
        lineno, body = rest[idx]
        try:
            doc.outer_hint = [int(tok) for tok in body[len("outer:"):].split()]
        except ValueError:
            raise DocumentSyntaxError("bad outer hint", lineno)
        idx += 1
    if idx < len(rest) and rest[idx][1] == "covers:":
        for lineno, body in rest[idx + 1:]:
            try:
                edge_part, pair_part = body.split(":", 1)
                u, v = (int(t) for t in edge_part.split())
                pairs = []
                for tok in pair_part.split():
                    a, b = tok.split(">")
                    pairs.append((int(a), int(b)))
            except ValueError:
                raise DocumentSyntaxError("bad cover line", lineno)
            doc.cover_pairs[(u, v)] = pairs
        idx = len(rest)
    elif idx < len(rest):
        raise DocumentSyntaxError("unexpected trailing line", rest[idx][0])
    return doc


def serialize_rotation_text(g: PlaneGraph, cover: Optional[Cover] = None) -> str:
    lines = g.rotation_lines()
    lines.append("outer: " + " ".join(str(v) for v in g.outer_face.boundary))
    if cover is not None:
        lines.append("covers:")
        for (u, v), pairs in sorted(cover.matchings.items()):
            body = " ".join(f"{a}>{b}" for a, b in pairs)
            lines.append(f"{u} {v}: {body}")
    return "\n".join(lines) + "\n"


# -- graph6 -------------------------------------------------------------------


def parse_graph6(text: str) -> GraphDocument:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise DocumentSyntaxError("empty graph6 payload")
    data = [ord(ch) - 63 for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise DocumentSyntaxError("graph6 characters out of range")
    if data[0] == 63:
        if len(data) >= 4 and data[1] != 63:
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            body = data[4:]
        elif len(data) >= 8:
            n = 0
            for b in data[2:8]:
                n = (n << 6) | b
            body = data[8:]
        else:
            raise DocumentSyntaxError("truncated graph6 size")
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise DocumentSyntaxError("truncated graph6 bit vector")
    bits = []
    for b in body[:need]:
        bits.extend((b >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                edges.append((i, j))
            at += 1
    return GraphDocument("graph6", n, edges=edges)


# -- planar code --------------------------------------------------------------


def parse_planar_code(data: bytes) -> GraphDocument:
    """First graph of a planar-code stream (1-byte entries, n <= 255)."""
    body = data
    if body.startswith(b">>planar_code"):
        end = body.find(b"<<")
        if end < 0:
            raise DocumentSyntaxError("unterminated planar_code header")
        body = body[end + 2:]
    if not body:
        raise DocumentSyntaxError("empty planar code payload")
    n = body[0]
    if n == 0:
        raise DocumentSyntaxError("2-byte planar code is not supported")
    at = 1
    rotations: list[list[int]] = []
    for v in range(n):
        rot = []
        while True:
            if at >= len(body):
                raise DocumentSyntaxError("truncated planar code", at)
            entry = body[at]
            at += 1
            if entry == 0:
                break
            rot.append(entry - 1)
        rotations.append(rot)
    return GraphDocument("planar-code", n, rotations=rotations)


# -- top-level parse ----------------------------------------------------------


def detect_format(data: bytes) -> str:
    if data.startswith(b">>planar_code") or b"\x00" in data[:200]:
        return "planar-code"
    text = data.decode("ascii", errors="replace")
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()
                  and not ln.strip().startswith("#")), "")
    if first and (first.split()[0].isdigit()):
        return "rotation-text"
    return "graph6"


def load_document(data: bytes, fmt: str = "auto") -> GraphDocument:
    if fmt == "auto":
        fmt = detect_format(data)
    if fmt == "rotation-text":
        return parse_rotation_text(data.decode("utf-8"))
    if fmt == "graph6":
        return parse_graph6(data.decode("ascii"))
    if fmt == "planar-code":
        return parse_planar_code(data)
    raise DocumentSyntaxError(f"unknown format {fmt!r}")


def parse(document: GraphDocument, embed_limit: int = 12) -> PlaneGraph:
    """PlaneGraph from a document; abstract graphs are embedded first."""
    if document.rotations is not None:
        return build_from_rotation(document.vertex_count, document.rotations,
                                   document.outer_hint)
    if document.edges is None:
        raise DocumentSyntaxError("document has neither rotations nor edges")
    return embed_planar(document.vertex_count, document.edges,
                        limit=embed_limit)


def document_cover(document: GraphDocument, g: PlaneGraph, k: int) -> Cover:
    """Cover from a document's ``covers:`` section with lists 1..k."""
    lists = [tuple(range(1, k + 1))] * g.vertex_count
    return make_cover(g, lists, document.cover_pairs)


def _nx_graph(n: int, edges: Sequence[tuple[int, int]]) -> nx.Graph:
    import networkx as nx
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def embed_planar(vertex_count: int, edges: Sequence[tuple[int, int]], *,
                 limit: int = 12) -> PlaneGraph:
    """Embed an abstract graph (small inputs), or raise NotPlanar.

    The embedding comes from a standard left-right planarity test; the
    result always revalidates through build_from_rotation.
    """
    if vertex_count > limit:
        raise TooLargeToEmbed(f"{vertex_count} vertices exceed limit {limit}")
    import networkx as nx
    graph = _nx_graph(vertex_count, edges)
    ok, embedding = nx.check_planarity(graph)
    if not ok:
        raise NotPlanar(f"graph on {vertex_count} vertices is not planar")
    rotations = []
    for v in range(vertex_count):
        if graph.degree(v):
            rotations.append(list(embedding.neighbors_cw_order(v)))
        else:
            rotations.append([])
    return build_from_rotation(vertex_count, rotations)


# -- corpus generation --------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: sizes, class filter, connectivity floor, seed.

    Sizes up to ``exhaustive_limit`` are enumerated completely (one graph
    per isomorphism class); larger sizes are seeded random samples,
    ``per_size_samples`` graphs each.
    """

    n_min: int
    n_max: int
    class_filter: Optional[str] = None  # "g1" | "g2" | None
    connectivity: int = 1
    seed: int = 0
    exhaustive_limit: int = 6
    per_size_samples: int = 12

    def __post_init__(self):
        if self.class_filter not in (None, "g1", "g2"):
            raise ValueError(f"unknown class filter {self.class_filter!r}")


def _all_connected_graphs(n: int) -> Iterator[list[tuple[int, int]]]:
    """All connected graphs on n labeled vertices, one per iso class.

    Bit t of an edge bitmask stands for the t-th vertex pair in
    lexicographic order.  Each class is kept in its least-bitmask
    labelling (Read's orderly canonical form), and classes come out in
    ascending order of that mask.  They are found by descent from K_n: a
    least mask M other than K_n has the least parent M plus its lowest
    unset bit.  (Relabelling commutes with complement, so M is least
    exactly when ~M is greatest, and by Read's theorem a greatest mask
    stays greatest without its lowest set bit.)  So the children of a
    parent clear one bit below its lowest unset bit; a child is kept when
    it is connected and least, and a disconnected one has no connected
    descendants.
    """
    if n == 0:
        return  # the null graph is not counted as connected
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = [(1 << len(slots)) - 1]
    stack = found[:]
    while stack:
        parent = stack.pop()
        for t in range((~parent & (parent + 1)).bit_length() - 1):
            child = parent & ~(1 << t)
            adj = [0] * n
            for s, (i, j) in enumerate(slots):
                if child >> s & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            if _connected(adj) and _least(adj):
                found.append(child)
                stack.append(child)
    for mask in sorted(found):
        yield [slot for t, slot in enumerate(slots) if mask >> t & 1]


def _connected(adj: list[int]) -> bool:
    """Whether the graph with bitmask neighbor rows ``adj`` is connected."""
    reach, grown = 0, 1
    while grown != reach:
        reach = grown
        for v in range(len(adj)):
            if reach >> v & 1:
                grown |= adj[v]
    return reach == (1 << len(adj)) - 1


def _least(adj: list[int]) -> bool:
    """Whether no relabelling maps the graph to a smaller edge bitmask.

    Labels are given from n - 1 down.  Giving label L fixes the image bits
    of the pairs (L, j), j > L, and they weigh less than every bit fixed
    before them; so a branch whose row exceeds the mask's row is pruned,
    and a row below it proves a smaller image.
    """
    n = len(adj)
    stack = [(n - 1, ())]  # (label to give, holders of labels above it)
    while stack:
        label, above = stack.pop()
        want = adj[label] >> (label + 1)
        for v in range(n):
            if v in above:
                continue
            row = 0
            for k, w in enumerate(above):
                row |= (adj[v] >> w & 1) << k
            if row < want:
                return False
            if row == want and label:
                stack.append((label - 1, (v,) + above))
    return True


def _passes(spec: CorpusSpec, n: int, edges: list[tuple[int, int]],
            g: PlaneGraph) -> bool:
    c = spec.connectivity
    if c > 1:
        # complete graphs are the only graphs this size with no small cutset
        if n <= c:
            if len(edges) != n * (n - 1) // 2:
                return False
        else:
            import networkx as nx
            if nx.node_connectivity(_nx_graph(n, edges)) < c:
                return False
    if spec.class_filter is not None:
        tag = class_membership(g)
        if spec.class_filter == "g1" and not tag.in_g1:
            return False
        if spec.class_filter == "g2" and not tag.in_g2:
            return False
    return True


def corpus_generate(spec: CorpusSpec) -> Iterator[PlaneGraph]:
    """Deterministic stream of embedded filter-passing graphs."""
    for n in range(spec.n_min, spec.n_max + 1):
        if n <= spec.exhaustive_limit:
            for edges in _all_connected_graphs(n):
                try:
                    g = embed_planar(n, edges, limit=max(12, n))
                except NotPlanar:
                    continue
                if _passes(spec, n, edges, g):
                    yield g
        else:
            import networkx as nx
            rng = random.Random(spec.seed * 1_000_003 + n)
            # earlier distinct draws, keyed by sorted degree sequence
            seen: dict[tuple[int, ...], list[nx.Graph]] = {}
            produced = 0
            attempts = 0
            cap = 400 * spec.per_size_samples
            while produced < spec.per_size_samples and attempts < cap:
                attempts += 1
                edges = _random_connected_planar(rng, n)
                graph = _nx_graph(n, edges)
                same = seen.setdefault(
                    tuple(sorted(d for _, d in graph.degree)), [])
                if any(nx.is_isomorphic(graph, h) for h in same):
                    continue
                same.append(graph)
                try:
                    g = embed_planar(n, edges, limit=max(12, n))
                except NotPlanar:
                    continue
                if _passes(spec, n, edges, g):
                    produced += 1
                    yield g


def _random_connected_planar(rng: random.Random, n: int
                             ) -> list[tuple[int, int]]:
    """A random spanning tree plus random planarity-keeping extra edges."""
    import networkx as nx
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = rng.randint(0, 2 * n)
    graph = nx.Graph(sorted(edges))
    graph.add_nodes_from(range(n))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        graph.add_edge(u, v)
        if nx.check_planarity(graph)[0]:
            edges.add((min(u, v), max(u, v)))
        else:
            graph.remove_edge(u, v)
    return sorted(edges)
