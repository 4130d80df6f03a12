"""Metric-graph skeleta, length-preserving refinements, retractions, finite
tower separation, and ordered subdivision sets with formal completion.

Graphs are abstract metric graphs (loops and multi-edges allowed).  Points
are exact: a vertex, or (edge, rational offset from the edge's first
endpoint).  A refinement embeds a coarse graph into a fine one edge-path by
edge-path; the complement of the image must be a disjoint union of trees
each attached at a single image point, which makes the nearest-point
retraction well defined and unique.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotSeparatedError
from .padic import _Record, _set_field, json_shape, parse_fraction

_ZERO = Fraction(0)


def json_name(value) -> str:
    """A vertex or edge name read from a file: a JSON string."""
    return json_shape(value, "string", "a vertex or edge name")


class Edge(_Record):
    __slots__ = _fields = ("id", "u", "v", "length")

    def __init__(self, id: str, u: str, v: str, length: Fraction):
        if type(length) is not Fraction:
            length = parse_fraction(length)
        if length <= 0:
            raise ValueError(f"edge {id}: length must be positive")
        _set_field(self, "id", id)
        _set_field(self, "u", u)
        _set_field(self, "v", v)
        _set_field(self, "length", length)


class SkeletonGraph(_Record):
    # cusps are (half-edge id, vertex) pairs; edge_map holds the edges by
    # id, built once per graph, and callers must not mutate it
    _fields = ("vertices", "edges", "cusps")
    __slots__ = _fields + ("edge_map",)

    def __init__(self, vertices: frozenset, edges: Tuple[Edge, ...],
                 cusps: Tuple[Tuple[str, str], ...] = ()):
        _set_field(self, "vertices", frozenset(vertices))
        _set_field(self, "edges", tuple(edges))
        _set_field(self, "cusps", cusps)
        by_id = {}
        for e in self.edges:
            if e.id in by_id:
                raise ValueError(f"duplicate edge id {e.id}")
            by_id[e.id] = e
            if e.u not in self.vertices or e.v not in self.vertices:
                raise ValueError(f"edge {e.id} has an unknown endpoint")
        for hid, w in self.cusps:
            if w not in self.vertices:
                raise ValueError(f"cusp {hid} attached to unknown vertex {w}")
        if self.vertices and not self._connected():
            raise ValueError("graph must be connected")
        _set_field(self, "edge_map", by_id)

    def _connected(self) -> bool:
        verts = set(self.vertices)
        adj: Dict[str, List[str]] = {w: [] for w in verts}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            w = stack.pop()
            for nb in adj[w]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return seen == verts

    @classmethod
    def build(cls, vertices: Sequence[str],
              edges: Sequence[Tuple[str, str, str, Fraction]],
              cusps: Sequence[Tuple[str, str]] = ()) -> "SkeletonGraph":
        return cls(frozenset(vertices),
                   tuple(Edge(i, u, v, L) for i, u, v, L in edges),
                   tuple(cusps))

    @classmethod
    def from_json(cls, data: dict) -> "SkeletonGraph":
        data = json_shape(data, "object", "a graph")
        vertices = json_shape(data.get("vertices"), "list", '"vertices"')
        edges = json_shape(data.get("edges"), "list", '"edges"')
        cusps = json_shape(data.get("cusps", []), "list", '"cusps"')
        edges = [json_shape(e, "list", "an edge", 4) for e in edges]
        cusps = [json_shape(c, "list", "a cusp", 2) for c in cusps]
        return cls.build([json_name(w) for w in vertices],
                         [(*map(json_name, e[:3]), parse_fraction(e[3]))
                          for e in edges],
                         [tuple(map(json_name, c)) for c in cusps])


class GraphPoint(_Record):
    """A vertex (edge=None) or an interior edge point at a rational offset
    measured from the edge's first endpoint."""

    __slots__ = _fields = ("vertex", "edge", "offset")

    def __init__(self, vertex: Optional[str] = None, edge: Optional[str] = None,
                 offset: Optional[Fraction] = None):
        if (vertex is None) == (edge is None):
            raise ValueError("a point is either a vertex or an edge point")
        if edge is not None and type(offset) is not Fraction:
            offset = parse_fraction(offset)
        _set_field(self, "vertex", vertex)
        _set_field(self, "edge", edge)
        _set_field(self, "offset", offset)

    @classmethod
    def at_vertex(cls, w: str) -> "GraphPoint":
        return cls(vertex=w)

    @classmethod
    def on_edge(cls, eid: str, offset) -> "GraphPoint":
        return cls(edge=eid, offset=offset)

    def __repr__(self):
        if self.vertex is not None:
            return f"Pt(v={self.vertex})"
        return f"Pt({self.edge}@{self.offset})"


def canonical_point(g: SkeletonGraph, pt: GraphPoint) -> GraphPoint:
    """Snap offsets 0 and L to the corresponding vertices."""
    if pt.vertex is not None:
        if pt.vertex not in g.vertices:
            raise ValueError(f"unknown vertex {pt.vertex}")
        return pt
    e = g.edge_map.get(pt.edge)
    if e is None:
        raise ValueError(f"unknown edge {pt.edge}")
    if not 0 <= pt.offset <= e.length:
        raise ValueError("offset outside the edge")
    if pt.offset == 0:
        return GraphPoint.at_vertex(e.u)
    if pt.offset == e.length:
        return GraphPoint.at_vertex(e.v)
    return pt


class Refinement(_Record):
    """Embedding of ``coarse`` into ``fine``: ``vertex_map`` sends the coarse
    vertices to fine vertices and ``edge_paths`` each coarse edge to a
    length-preserving path of (fine edge, sign +-1) steps.

    Validation builds the two tables ``retract`` reads: ``edge_loc`` maps
    each embedded fine edge to (coarse edge, sign, arclength before it), and
    ``vertex_image`` maps every fine vertex to its retraction onto the
    coarse graph.

    Off the embedded arcs one rule holds.  Let H be the fine graph without
    the embedded edges, and let the image points be the ``vertex_map``
    images and the interior stops of the arcs.  Every connected component
    of H must hold exactly one image point and have exactly (its vertex
    count - 1) edges; being connected, it is then a tree, and it retracts
    whole onto that point.  This accepts exactly the embeddings whose
    complement is a union of trees each attached at a single image point:
    a cycle, or two edges from one tree to its anchor, breaks the edge
    count; a tree that touches two image points, or an off-image edge
    between two image points, puts two image points in one component; and
    a fine vertex cut off from the image leaves a component with none.
    Conversely, removing the one image point of such a tree leaves subtrees
    each joined to it by a single edge."""

    _fields = ("coarse", "fine", "vertex_map", "edge_paths")
    _hashed = ("coarse", "fine")
    __slots__ = _fields + ("edge_loc", "vertex_image")

    def __init__(self, coarse: SkeletonGraph, fine: SkeletonGraph,
                 vertex_map: Dict[str, str],
                 edge_paths: Dict[str, Tuple[Tuple[str, int], ...]]):
        _set_field(self, "coarse", coarse)
        _set_field(self, "fine", fine)
        _set_field(self, "vertex_map", dict(vertex_map))
        _set_field(self, "edge_paths", {e: tuple(p) for e, p in edge_paths.items()})
        edge_loc, vertex_image = self._validate()
        _set_field(self, "edge_loc", edge_loc)
        _set_field(self, "vertex_image", vertex_image)

    def _validate(self):
        vmap, paths = self.vertex_map, self.edge_paths
        fmap = self.fine.edge_map
        cmap = self.coarse.edge_map
        if set(vmap) != set(self.coarse.vertices):
            raise ValueError("vertex_map must cover exactly the coarse vertices")
        if len(set(vmap.values())) != len(vmap):
            raise ValueError("vertex_map must be injective")
        for _, fv in sorted(vmap.items()):
            if fv not in self.fine.vertices:
                raise ValueError(f"image vertex {fv} missing in the fine graph")
        if set(paths) != set(cmap):
            raise ValueError("edge_paths must cover exactly the coarse edges")

        edge_loc: Dict[str, Tuple[str, int, Fraction]] = {}
        image = {fv: GraphPoint.at_vertex(cv) for cv, fv in vmap.items()}
        for ceid in sorted(paths):
            path, ce = paths[ceid], cmap[ceid]
            if not path:
                raise ValueError(f"empty path for coarse edge {ceid}")
            cur = vmap[ce.u]
            run = _ZERO
            for idx, (feid, sign) in enumerate(path):
                if type(sign) is not int or sign not in (1, -1):
                    raise ValueError("path orientations must be +-1")
                if feid in edge_loc:
                    raise ValueError(f"fine edge {feid} used twice: not injective")
                fe = fmap.get(feid)
                if fe is None:
                    raise ValueError(f"unknown fine edge {feid}")
                start, end = (fe.u, fe.v) if sign == 1 else (fe.v, fe.u)
                if start != cur:
                    raise ValueError(f"path of {ceid} breaks at {feid}")
                edge_loc[feid] = (ceid, sign, run)
                run += fe.length
                cur = end
                if idx < len(path) - 1:
                    # interior stop of the embedded arc
                    if cur in image:
                        raise ValueError(
                            f"path of {ceid} passes through the image vertex {cur}"
                            if image[cur].vertex is not None else
                            f"fine vertex {cur} lies on two coarse edges")
                    image[cur] = GraphPoint(edge=ceid, offset=run)
            if cur != vmap[ce.v]:
                raise ValueError(f"path of {ceid} does not end at the image of {ce.v}")
            if run != ce.length:
                raise ValueError(
                    f"path of {ceid} has length {run}, expected {ce.length}")

        # the one rule of the class docstring, component by component in
        # vertex order; an image point with no off-image edge passes alone
        adj: Dict[str, List[str]] = {w: [] for w in self.fine.vertices}
        for fe in self.fine.edges:
            if fe.id not in edge_loc:
                adj[fe.u].append(fe.v)
                adj[fe.v].append(fe.u)
        seen = set()
        for start in sorted(w for w, nbs in adj.items() if nbs or w not in image):
            if start in seen:
                continue
            part, stack, ends = {start}, [start], 0
            while stack:
                nbs = adj[stack.pop()]
                ends += len(nbs)
                for nb in nbs:
                    if nb not in part:
                        part.add(nb)
                        stack.append(nb)
            seen |= part
            anchors = [w for w in part if w in image]
            if len(anchors) != 1 or ends != 2 * (len(part) - 1):
                raise ValueError(
                    "the fine graph off the embedded arcs must be trees through "
                    f"one image point each; its part on {sorted(part)} holds "
                    f"{len(anchors)} image points and {ends // 2} edges")
            anchor_image = image[anchors[0]]
            for w in part:
                image[w] = anchor_image
        return edge_loc, image


def retract(pt: GraphPoint, ref: Refinement) -> GraphPoint:
    """Nearest-point projection of a fine point onto the embedded coarse graph."""
    pt = canonical_point(ref.fine, pt)
    if pt.vertex is not None:
        return ref.vertex_image[pt.vertex]
    loc = ref.edge_loc.get(pt.edge)
    fe = ref.fine.edge_map[pt.edge]
    if loc is None:
        # a hanging tree retracts whole onto its attachment point
        return ref.vertex_image[fe.u]
    ceid, sign, prefix = loc
    t = pt.offset if sign == 1 else fe.length - pt.offset
    # an interior point of a path edge lands strictly inside the coarse edge
    return GraphPoint(edge=ceid, offset=prefix + t)


def compose(r12: Refinement, r23: Refinement) -> Refinement:
    """Composite refinement: fine graph of r12, coarse graph of r23
    (r12: G1 <- G2 embedding ... fine=G1, coarse=G2; r23: fine=G2, coarse=G3)."""
    if r12.coarse != r23.fine:
        raise ValueError("refinements do not chain: r12.coarse must be r23.fine")
    vmap = {cv: r12.vertex_map[fv2] for cv, fv2 in r23.vertex_map.items()}
    paths: Dict[str, List[Tuple[str, int]]] = {}
    for ceid, path2 in r23.edge_paths.items():
        out: List[Tuple[str, int]] = []
        for eid2, sign2 in path2:
            sub = list(r12.edge_paths[eid2])
            if sign2 == -1:
                sub = [(feid, -sign) for feid, sign in reversed(sub)]
            out.extend(sub)
        paths[ceid] = out
    return Refinement(r23.coarse, r12.fine, vmap, paths)


class CheckReport(_Record):
    __slots__ = _fields = ("ok", "sample", "message")

    def __init__(self, ok: bool, sample: Optional[GraphPoint] = None, message: str = ""):
        _set_field(self, "ok", ok)
        _set_field(self, "sample", sample)
        _set_field(self, "message", message)


def sample_points(g: SkeletonGraph, count: int, rng) -> List[GraphPoint]:
    """Deterministic sample: all vertices plus seeded rational edge points."""
    pts = [GraphPoint.at_vertex(w) for w in sorted(g.vertices)]
    edges = sorted(g.edges, key=lambda e: e.id)
    while len(pts) < count and edges:
        e = edges[rng.randrange(len(edges))]
        den = rng.randrange(2, 17)
        num = rng.randrange(1, den)
        pts.append(GraphPoint.on_edge(e.id, e.length * Fraction(num, den)))
    return pts[:count] if count < len(pts) else pts


def compose_check(r12: Refinement, r23: Refinement, samples: int = 100,
                  seed: int = 0) -> CheckReport:
    """Prove r23(r12(x)) = (r23 o r12)(x) at every point x of the finest
    graph by comparing the tables ``retract`` reads.

    On a closed fine edge e (length L) a retraction is constant, equal to
    its value at e.u, when e has no ``edge_loc`` entry: both ends of a
    hanging edge retract to one point.  Else it is t -> (c, prefix + t), or
    prefix + L - t for sign -1, with (c, sign, prefix) = edge_loc[e].  The
    two-step map is constant on e when r12 leaves e, or r23 leaves e's image
    edge c2, off its image; else its entry is (c3, s12 s23, pre23 + pre12),
    with pre12 read along c2 reversed (L(c2) - pre12 - L) when s23 = -1.
    Two distinct such maps agree at one interior point at most, so the
    retractions are equal iff they agree at every fine vertex and give
    every fine edge the same entry or none.  Vertices and edge midpoints do
    not suffice: reversing a fine edge that covers a coarse loop fixes both.

    ``samples`` must be positive; it and ``seed`` do not change the result."""
    if samples < 1:
        raise ValueError("samples must be positive")
    r13 = compose(r12, r23)
    for w in sorted(r12.fine.vertices):
        two_step, one_step = retract(r12.vertex_image[w], r23), r13.vertex_image[w]
        if two_step != one_step:
            pt = GraphPoint.at_vertex(w)
            return CheckReport(False, pt, f"{two_step!r} != {one_step!r} at {pt!r}")
    for e in r12.fine.edges:
        c2, s12, pre12 = r12.edge_loc.get(e.id, (None, 1, 0))
        two_step = None
        if c2 in r23.edge_loc:
            c3, s23, pre23 = r23.edge_loc[c2]
            if s23 == -1:
                pre12 = r12.coarse.edge_map[c2].length - pre12 - e.length
            two_step = (c3, s12 * s23, pre23 + pre12)
        one_step = r13.edge_loc.get(e.id)
        if two_step != one_step:
            return CheckReport(False, None,
                               f"{two_step!r} != {one_step!r} on edge {e.id}")
    return CheckReport(True)


class SkeletonTower(_Record):
    """graphs[0] is the coarsest; refinements[i] embeds graphs[i] into
    graphs[i+1] (fine = graphs[i+1], coarse = graphs[i])."""

    __slots__ = _fields = ("graphs", "refinements")

    def __init__(self, graphs: Tuple[SkeletonGraph, ...],
                 refinements: Tuple[Refinement, ...]):
        if len(refinements) != len(graphs) - 1:
            raise ValueError("a tower of d+1 graphs needs d refinements")
        for i, r in enumerate(refinements):
            if r.coarse != graphs[i] or r.fine != graphs[i + 1]:
                raise ValueError(f"refinement {i} does not match the tower graphs")
        _set_field(self, "graphs", graphs)
        _set_field(self, "refinements", refinements)

    @property
    def depth(self) -> int:
        return len(self.refinements)

    def images(self, pt: GraphPoint) -> List[GraphPoint]:
        """Retractions of a finest-graph point onto every level, index 0 =
        coarsest .. depth = the point itself."""
        out = [canonical_point(self.graphs[-1], pt)]
        for r in reversed(self.refinements):
            out.append(retract(out[-1], r))
        out.reverse()
        return out


def tower_separation(tower: SkeletonTower, x: GraphPoint, y: GraphPoint) -> int:
    """Smallest level at which the retraction images of x and y differ.

    Levels run over the proper retraction targets 0..depth-1; if every level
    identifies the two (distinct) points the tower is too coarse and
    NotSeparatedError is raised.
    """
    top = tower.graphs[-1]
    if canonical_point(top, x) == canonical_point(top, y):
        raise ValueError("x and y must be distinct points of the finest graph")
    ix = tower.images(x)
    iy = tower.images(y)
    for level in range(tower.depth):
        if ix[level] != iy[level]:
            return level
    raise NotSeparatedError(
        f"points agree on all {tower.depth} proper levels of the tower")


class EdgeEnd(Enum):
    LOWER = "0_e"
    UPPER = "1_e"


class SubdivisionSet(_Record):
    """Per-level strictly increasing rational cut positions in (0, L) on a
    host edge, with level-to-level inclusion."""

    __slots__ = _fields = ("length", "levels")

    def __init__(self, length: Fraction, levels: Tuple[Tuple[Fraction, ...], ...]):
        length = parse_fraction(length)
        lv = tuple(tuple(map(parse_fraction, level)) for level in levels)
        if length <= 0:
            raise ValueError("edge length must be positive")
        prev = None
        for level in lv:
            for t in level:
                if not 0 < t < length:
                    raise ValueError("cut positions must lie strictly inside the edge")
            if list(level) != sorted(set(level)):
                raise ValueError("cut positions must be strictly increasing")
            if prev is not None and not set(prev) <= set(level):
                raise ValueError("levels must be nested (coarse included in fine)")
            prev = level
        _set_field(self, "length", length)
        _set_field(self, "levels", lv)


class CompletedSubdivision(_Record):
    """Merged ordered cut set with formal endpoints 0_e, 1_e adjoined."""

    __slots__ = _fields = ("length", "cuts")

    def __init__(self, length: Fraction, cuts: Tuple[Fraction, ...]):
        _set_field(self, "length", length)
        _set_field(self, "cuts", cuts)

    @property
    def points(self) -> Tuple:
        return (EdgeEnd.LOWER,) + self.cuts + (EdgeEnd.UPPER,)

    def reversal(self, point):
        """Order-reversing bijection to the opposite orientation:
        t -> L - t, swapping the formal endpoints."""
        if point is EdgeEnd.LOWER:
            return EdgeEnd.UPPER
        if point is EdgeEnd.UPPER:
            return EdgeEnd.LOWER
        t = parse_fraction(point)
        if not 0 < t < self.length:
            raise ValueError("not a point of the completed edge")
        return self.length - t


def subdivision_union(s: SubdivisionSet) -> CompletedSubdivision:
    """Union of the levels as an ordered set with completion endpoints."""
    merged = sorted(set(t for level in s.levels for t in level))
    return CompletedSubdivision(s.length, tuple(merged))
