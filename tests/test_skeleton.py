import itertools
import json
import random
import re
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from nonarch import (EdgeEnd, GraphPoint, Refinement,
                     SkeletonGraph, SkeletonTower, SubdivisionSet,
                     canonical_point, compose, compose_check, retract,
                     sample_points, subdivision_union, tower_separation)
from nonarch import cli, skeleton
from nonarch.errors import NotSeparatedError
from nonarch.padic import parse_fraction, rational_text

from helpers import (FractionRefinement, arclength_oracle, complement_walk_oracle,
                     fraction_compose_check, fraction_images, fraction_tables,
                     fraction_tower_separation, graph_json, mixed_tower_text,
                     off_image_mutation, random_tower, tower_json)


def path_graph():
    return SkeletonGraph.build(["a", "b"], [("e", "a", "b", Fraction(2))])


def subdivided_with_tree():
    return SkeletonGraph.build(
        ["a", "m", "b", "t1", "t2"],
        [("e1", "a", "m", 1), ("e2", "m", "b", 1),
         ("h1", "m", "t1", 2), ("h2", "t1", "t2", 1)])


def base_refinement():
    return Refinement(path_graph(), subdivided_with_tree(),
                      {"a": "a", "b": "b"},
                      {"e": [("e1", 1), ("e2", 1)]})


# --------------------------------------------------------- oracles


def attachment_oracle(ref, vertex):
    """Independent BFS from a hanging vertex to the nearest image point."""
    used = {feid for path in ref.edge_paths.values() for feid, _ in path}
    image_v = set(ref.vertex_map.values())
    for feid in used:
        e = ref.fine.edge_map[feid]
        image_v |= {e.u, e.v}
    adj = {}
    for e in ref.fine.edges:
        if e.id in used:
            continue
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    frontier = [vertex]
    seen = {vertex}
    while frontier:
        nxt = []
        for w in frontier:
            if w in image_v:
                return w
            for nb in adj.get(w, ()):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    raise AssertionError("no attachment found")


# ------------------------------------------------------------- retract


def test_retract_fixes_image_points():
    ref = base_refinement()
    assert retract(GraphPoint.at_vertex("a"), ref) == GraphPoint.at_vertex("a")
    # midpoint of the subdivided edge keeps its arclength position
    assert retract(GraphPoint.on_edge("e2", Fraction(1, 3)), ref) == \
        GraphPoint.on_edge("e", Fraction(4, 3))
    assert retract(GraphPoint.on_edge("e1", Fraction(1)), ref) == \
        GraphPoint.on_edge("e", Fraction(1))


def test_retract_hanging_tree_to_attachment():
    ref = base_refinement()
    for pt in (GraphPoint.at_vertex("t1"), GraphPoint.at_vertex("t2"),
               GraphPoint.on_edge("h2", Fraction(1, 2))):
        got = retract(pt, ref)
        assert got == GraphPoint.on_edge("e", Fraction(1))  # image of m
    assert attachment_oracle(base_refinement(), "t2") == "m"


def test_retract_of_embedding_is_identity_on_samples():
    tower = random_tower(5, 2)
    ref = tower.refinements[0]
    rng = random.Random(0)
    for pt in sample_points(ref.coarse, 40, rng):
        # push a coarse point into the fine graph along its edge path
        pt = canonical_point(ref.coarse, pt)
        if pt.vertex is not None:
            fine_pt = GraphPoint.at_vertex(ref.vertex_map[pt.vertex])
        else:
            run = Fraction(0)
            fine_pt = None
            for feid, sign in ref.edge_paths[pt.edge]:
                fe = ref.fine.edge_map[feid]
                if run <= pt.offset <= run + fe.length:
                    t = pt.offset - run
                    fine_pt = GraphPoint.on_edge(
                        feid, t if sign == 1 else fe.length - t)
                    break
                run += fe.length
            assert fine_pt is not None
        assert retract(fine_pt, ref) == pt


def expected_retraction(ref, pt):
    edges, stops = arclength_oracle(ref.fine, ref.vertex_map, ref.edge_paths)
    if pt.vertex is not None:
        return stops[attachment_oracle(ref, pt.vertex)]
    fe = ref.fine.edge_map[pt.edge]
    if pt.edge not in edges:
        # every point of a hanging tree goes to the tree's attachment point
        return stops[attachment_oracle(ref, fe.u)]
    ceid, sign, run = edges[pt.edge]
    return GraphPoint.on_edge(ceid, run + (pt.offset if sign == 1 else fe.length - pt.offset))


def reoriented(ref):
    """The same refinement with every other fine edge stored the other way
    round, so that paths run along edges against their orientation."""
    flip = {e.id for e in ref.fine.edges[::2]}
    fine = SkeletonGraph.build(
        sorted(ref.fine.vertices),
        [(e.id, *((e.v, e.u) if e.id in flip else (e.u, e.v)), e.length)
         for e in ref.fine.edges])
    paths = {c: [(f, -sign if f in flip else sign) for f, sign in path]
             for c, path in ref.edge_paths.items()}
    return Refinement(ref.coarse, fine, ref.vertex_map, paths)


def fine_points(ref, cuts):
    return [GraphPoint.at_vertex(w) for w in sorted(ref.fine.vertices)] + \
        [GraphPoint.on_edge(e.id, e.length * t) for e in ref.fine.edges for t in cuts]


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.integers(1, 4),
       cuts=st.lists(st.fractions(0, 1, max_denominator=16).filter(lambda t: 0 < t < 1),
                     min_size=1, max_size=3))
def test_retract_matches_oracles_and_composes(seed, depth, cuts):
    tower = random_tower(seed, depth)
    for ref in tower.refinements:
        for r in (ref, reoriented(ref)):
            for pt in fine_points(r, cuts):
                assert retract(pt, r) == expected_retraction(r, pt), pt
    for r23, r12 in zip(tower.refinements, tower.refinements[1:]):
        for r in (r12, reoriented(r12)):
            r13 = compose(r, r23)
            for pt in fine_points(r, cuts):
                assert retract(retract(pt, r), r23) == retract(pt, r13), pt


OFF_IMAGE = ("the fine graph off the embedded arcs must be trees through one "
             "image point each; its part on {} holds {} image points and {} edges")


def test_invalid_refinement_rejected():
    g0 = path_graph()
    bad_fine = SkeletonGraph.build(["a", "m", "b"],
                                   [("e1", "a", "m", 1), ("e2", "m", "b", 2)])
    with pytest.raises(ValueError, match="^path of e has length 3, expected 2$"):
        Refinement(g0, bad_fine, {"a": "a", "b": "b"},
                   {"e": [("e1", 1), ("e2", 1)]})  # wrong total length
    # complement component touching the image twice (a cycle) is rejected
    loopy = SkeletonGraph.build(["a", "m", "b"],
                                [("e1", "a", "m", 1), ("e2", "m", "b", 1),
                                 ("back", "a", "b", 5)])
    with pytest.raises(ValueError, match=re.escape(OFF_IMAGE.format(["a", "b"], 2, 1))):
        Refinement(g0, loopy, {"a": "a", "b": "b"},
                   {"e": [("e1", 1), ("e2", 1)]})


@pytest.mark.parametrize("extra, part, points, edges", [
    # a cycle hanging at one point
    ([("h1", "m", "u", 1), ("h2", "u", "w", 1), ("h3", "w", "m", 1)],
     ["m", "u", "w"], 1, 3),
    # a tree touching two image points
    ([("h1", "m", "x", 1), ("h2", "x", "a", 1)], ["a", "m", "x"], 2, 2),
    # an off-image edge joining two image points
    ([("h", "a", "b", 5)], ["a", "b"], 2, 1),
    # a loop at an image vertex
    ([("h", "m", "m", 1)], ["m"], 1, 1),
    # a doubled fine edge: two edges from one tree to its anchor
    ([("h1", "m", "t", 1), ("h2", "m", "t", 1)], ["m", "t"], 1, 2),
])
def test_off_image_refusals(extra, part, points, edges):
    fine = SkeletonGraph.build(
        {"a", "m", "b"} | {w for _, u, v, _ in extra for w in (u, v)},
        [("e1", "a", "m", 1), ("e2", "m", "b", 1)] + extra)
    with pytest.raises(ValueError) as exc:
        Refinement(path_graph(), fine, {"a": "a", "b": "b"},
                   {"e": [("e1", 1), ("e2", 1)]})
    assert str(exc.value) == OFF_IMAGE.format(part, points, edges)


def test_a_fine_graph_over_an_empty_coarse_graph_is_refused():
    empty = SkeletonGraph.build([], [])
    with pytest.raises(ValueError) as exc:
        Refinement(empty, SkeletonGraph.build(["a"], []), {}, {})
    assert str(exc.value) == OFF_IMAGE.format(["a"], 0, 0)


def test_a_refinement_keeps_its_maps_and_hashes():
    ref = base_refinement()
    assert ref.vertex_map == {"a": "a", "b": "b"}
    assert ref.edge_paths == {"e": (("e1", 1), ("e2", 1))}
    assert ref == base_refinement() and hash(ref) == hash(base_refinement())


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(("edge", "loop", "double", "chain")), max_size=3))
def test_off_image_rule_matches_the_complement_walk(seed, depth, kinds):
    # the walk's texts depend on the hash seed, so only outcomes are compared
    rng = random.Random(seed)
    for ref in random_tower(seed, depth).refinements:
        fine = off_image_mutation(ref.fine, rng, kinds)
        edge_loc, stops = arclength_oracle(fine, ref.vertex_map, ref.edge_paths)
        try:
            expected = edge_loc, complement_walk_oracle(fine, edge_loc, stops)
        except ValueError:
            expected = None
        try:
            got = fraction_tables(Refinement(ref.coarse, fine, ref.vertex_map,
                                             ref.edge_paths))
        except ValueError as exc:
            assert str(exc).startswith(OFF_IMAGE[:60])
            got = None
        assert got == expected


# ------------------------------------------------------------- compose


def test_compose_check_identity_refinements():
    g = path_graph()
    ident = Refinement(g, g, {"a": "a", "b": "b"}, {"e": [("e", 1)]})
    rep = compose_check(ident, ident, samples=20, seed=3)
    assert rep.ok


def test_compose_check_subdivision_tower():
    tower = random_tower(11, 2)
    rep = compose_check(tower.refinements[1], tower.refinements[0],
                        samples=80, seed=1)
    assert rep.ok, rep.message


@pytest.mark.parametrize("seed", range(6))
def test_compose_check_random_towers(seed):
    tower = random_tower(100 + seed, 3)
    for i in range(tower.depth - 1):
        rep = compose_check(tower.refinements[i + 1], tower.refinements[i],
                            samples=100, seed=seed)
        assert rep.ok, rep.message


def test_compose_matches_stepwise_on_oriented_paths():
    tower = random_tower(42, 2)
    r13 = compose(tower.refinements[1], tower.refinements[0])
    # composite edge paths preserve total length
    for ceid, path in r13.edge_paths.items():
        ce = r13.coarse.edge_map[ceid]
        total = sum(r13.fine.edge_map[f].length for f, _ in path)
        assert total == ce.length


def test_compose_check_catches_a_reversed_loop_that_vertices_and_midpoints_miss():
    loop = SkeletonGraph.build(["a"], [("e", "a", "a", 2)])
    fine = SkeletonGraph.build(["a"], [("f", "a", "a", 2)])
    r23 = Refinement(loop, loop, {"a": "a"}, {"e": [("e", 1)]})
    r12 = Refinement(loop, fine, {"a": "a"}, {"e": [("f", 1)]})
    reversed_r13 = Refinement(loop, fine, {"a": "a"}, {"e": [("f", -1)]})
    for pt in (GraphPoint.at_vertex("a"), GraphPoint.on_edge("f", 1)):
        assert retract(retract(pt, r12), r23) == retract(pt, reversed_r13)
    assert compose_check(r12, r23).ok
    with patch.object(skeleton, "compose", lambda r12, r23: reversed_r13):
        rep = compose_check(r12, r23)
    assert not rep.ok
    assert rep.message == "('e', 1, Fraction(0, 1)) != ('e', -1, Fraction(0, 1)) on edge f"


def subdivide(coarse, rng, fresh, den=8):
    """A seeded refinement of ``coarse``: each edge cut at 0-2 multiples of
    1/den of its length into pieces of random orientation, then up to two
    edges hung at random vertices."""
    vertices, edges, paths = set(coarse.vertices), [], {}
    for e in coarse.edges:
        cuts = sorted(rng.sample(range(1, den), min(den - 1, rng.randint(0, 2))))
        offsets = [0] + [e.length * Fraction(c, den) for c in cuts] + [e.length]
        stops = [e.u] + [next(fresh) for _ in cuts] + [e.v]
        vertices.update(stops)
        paths[e.id] = []
        for k in range(len(stops) - 1):
            sign = rng.choice((1, -1))
            u, v = stops[k:k + 2][::sign]
            edges.append((next(fresh), u, v, offsets[k + 1] - offsets[k]))
            paths[e.id].append((edges[-1][0], sign))
    for _ in range(rng.randint(0, 2)):
        w = next(fresh)
        edges.append((next(fresh), rng.choice(sorted(vertices)), w, Fraction(1)))
        vertices.add(w)
    fine = SkeletonGraph.build(vertices, edges)
    return Refinement(coarse, fine, {w: w for w in coarse.vertices}, paths)


def sampled_compose_check(r12, r23, r13):
    """r23(r12(x)) = r13(x) at every fine vertex and at 1/4, 1/2 and 3/4 of
    every fine edge."""
    pts = [GraphPoint.at_vertex(w) for w in r12.fine.vertices] + [
        GraphPoint.on_edge(e.id, e.length * Fraction(k, 4))
        for e in r12.fine.edges for k in (1, 2, 3)]
    return all(retract(retract(x, r12), r23) == retract(x, r13) for x in pts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), reverse=st.booleans())
def test_compose_check_agrees_with_a_dense_sampled_check(seed, reverse):
    # a loop and a path, subdivided twice with both orientations; the
    # composite is optionally replaced by one that runs the loop backwards
    rng, fresh = random.Random(seed), (f"n{i}" for i in itertools.count())
    g0 = SkeletonGraph.build(["a", "b"], [("c", "a", "a", 2), ("d", "a", "b", 3)])
    r23 = subdivide(g0, rng, fresh)
    r12 = subdivide(r23.fine, rng, fresh)
    r13 = compose(r12, r23)
    if reverse:
        backwards = [(f, -s) for f, s in reversed(r13.edge_paths["c"])]
        r13 = Refinement(g0, r12.fine, r13.vertex_map, {**r13.edge_paths, "c": backwards})
    with patch.object(skeleton, "compose", lambda r12, r23: r13):
        exact = compose_check(r12, r23, samples=1).ok
    assert exact == sampled_compose_check(r12, r23, r13) == (not reverse)


# ------------------------------------------------------ integer tables


def outcome(fn, *args):
    """fn(*args), or the type and text of the refusal it raises."""
    try:
        return fn(*args)
    except (ValueError, NotSeparatedError) as exc:
        return type(exc), str(exc)


def graph_points(g, cuts):
    """Every vertex of g, and on every edge the points at the fractions
    ``cuts`` of its length and at its two ends."""
    return [GraphPoint.at_vertex(w) for w in sorted(g.vertices)] + [
        GraphPoint.on_edge(e.id, e.length * t) for e in g.edges for t in (0, *cuts, 1)]


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), depth=st.integers(1, 4), den=st.integers(2, 12),
       cuts=st.lists(st.fractions(0, 1, max_denominator=12).filter(lambda t: 0 < t < 1),
                     min_size=1, max_size=2))
def test_a_tower_file_is_read_into_the_tables_of_the_fraction_reference(
        tmp_path_factory, seed, depth, den, cuts):
    # lengths in every encoding a file may hold; the reference reads the
    # tower built from Fractions, the package the file
    tower = random_tower(seed, depth, den)
    rng = random.Random(seed)
    path = tmp_path_factory.mktemp("tower") / "tower.json"
    path.write_text(mixed_tower_text(tower, rng))
    loaded = cli._load_tower(str(path))
    assert loaded == tower
    for ref, api in zip(loaded.refinements, tower.refinements):
        edge_loc, stops = arclength_oracle(api.fine, api.vertex_map, api.edge_paths)
        assert fraction_tables(ref) == (
            edge_loc, complement_walk_oracle(api.fine, edge_loc, stops))
        reference = FractionRefinement(api)
        for pt in graph_points(api.fine, cuts):
            assert retract(pt, ref) == reference.retract(pt), pt
    for i in range(loaded.depth - 1):
        api12, api23 = tower.refinements[i + 1], tower.refinements[i]
        assert compose_check(loaded.refinements[i + 1], loaded.refinements[i]) == \
            fraction_compose_check(api12, api23, compose(api12, api23))
    pts = graph_points(loaded.graphs[-1], cuts)
    for x in rng.sample(pts, min(len(pts), 6)):
        assert loaded.images(x) == fraction_images(tower, x)
        for y in rng.sample(pts, min(len(pts), 6)):
            assert outcome(tower_separation, loaded, x, y) == \
                outcome(fraction_tower_separation, tower, x, y), (x, y)


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), den=st.integers(2, 12), reverse=st.booleans())
@example(seed=6, den=6, reverse=False)  # the middle graph has denominators 2 and 3
def test_compose_check_reports_what_the_fraction_reference_reports(seed, den, reverse):
    # levels on growing denominators, orientations at random, and the
    # composite optionally replaced by one that runs the loop backwards:
    # the first disagreement and its text are the reference's
    rng, fresh = random.Random(seed), (f"n{i}" for i in itertools.count())
    g0 = SkeletonGraph.build(["a", "b"],
                             [("c", "a", "a", 2), ("d", "a", "b", Fraction(3, den))])
    r23 = subdivide(g0, rng, fresh, den)
    r12 = subdivide(r23.fine, rng, fresh, den)
    r13 = compose(r12, r23)
    if reverse:
        backwards = [(f, -s) for f, s in reversed(r13.edge_paths["c"])]
        r13 = Refinement(g0, r12.fine, r13.vertex_map, {**r13.edge_paths, "c": backwards})
    with patch.object(skeleton, "compose", lambda r12, r23: r13):
        got = compose_check(r12, r23, samples=1)
    assert got == fraction_compose_check(r12, r23, r13)
    assert got.ok == (not reverse)


digits = st.text(alphabet="0123456789_\u0663\u00b2", max_size=4)
length_texts = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", "", " ", "+", "-", "\t"]), digits,
    st.sampled_from(["", "", "/", "/-", "/ ", "."]), digits,
    st.sampled_from(["", "", " ", "e2", ".5", "/3"]))


@settings(max_examples=400, deadline=None, database=None)
@given(value=st.one_of(length_texts, st.integers(-3, 3), st.booleans(), st.none(),
                       st.decimals(-10, 10, places=3), st.fractions(-4, 4)))
@example(value="2/4")
def test_a_length_is_read_as_parse_fraction_reads_it(value):
    def expected():
        length = parse_fraction(value)
        if length <= 0:
            raise ValueError("edge e: length must be positive")
        return length

    def got():
        data = {"vertices": ["a", "b"], "edges": [["e", "a", "b", value]]}
        return SkeletonGraph.from_json(data).edge_map["e"].length

    assert outcome(got) == outcome(expected)
    try:
        pair = (parse_fraction(value).numerator, parse_fraction(value).denominator)
    except ValueError as exc:
        pair = (ValueError, str(exc))
    assert outcome(skeleton.read_length, value) == pair


@pytest.mark.parametrize("text, pair", [
    ("12", (12, 1)), ("-3", (-3, 1)), ("007", (7, 1)), ("6/4", (6, 4)), ("1/0", (1, 0)),
    (" 1", None), ("+1", None), ("1_0", None), ("\u0663", None), ("1/ 2", None),
    ("1/-2", None), ("-", None), ("1/", None), ("/2", None), ("1.5", None), ("", None),
])
def test_rational_text_reads_only_ascii_digit_text(text, pair):
    assert rational_text(text) == pair


def test_a_depth_4_tower_is_loaded_and_checked_without_building_a_fraction(tmp_path):
    # every length, prefix and retraction is an integer over the tower's
    # denominator: no Fraction per edge or per path step
    tower = random_tower(35, 4, den=7)
    assert len(tower.graphs[-1].edges) == 88 and tower.graphs[-1].denominator == 343
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower_json(tower)))
    top = tower.graphs[-1]
    x, y = (GraphPoint.on_edge(e.id, e.length / 3) for e in top.edges[-2:])
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kw):
        built.append(args)
        return new(cls, *args, **kw)

    with patch.object(Fraction, "__new__", counted):
        loaded = cli._load_tower(str(path))
        reports = [compose_check(loaded.refinements[i + 1], loaded.refinements[i])
                   for i in range(loaded.depth - 1)]
        outcome(tower_separation, loaded, x, y)
        retract(x, loaded.refinements[-1])
        code, _ = cli.dispatch(["skeleton-tower", "--file", str(path), "--check", "compose"])
    assert all(r.ok for r in reports) and code == 0
    # one Fraction: the offset of the GraphPoint retract hands back
    assert len(built) == 1


# ------------------------------------------------------------ separation


def test_separation_distinct_on_coarsest():
    tower = random_tower(7, 2)
    fine = tower.graphs[-1]
    # points on two different coarse-edge images separate at level 0 when
    # their level-0 images differ
    pts = sample_points(fine, 30, random.Random(2))
    found = False
    for x in pts:
        for y in pts:
            if x == y:
                continue
            try:
                level = tower_separation(tower, x, y)
            except NotSeparatedError:
                imgs_x, imgs_y = tower.images(x), tower.images(y)
                assert all(imgs_x[k] == imgs_y[k] for k in range(tower.depth))
                continue
            imgs_x, imgs_y = tower.images(x), tower.images(y)
            assert imgs_x[level] != imgs_y[level]
            assert all(imgs_x[k] == imgs_y[k] for k in range(level))
            found = True
    assert found


def test_separation_after_subdivision():
    g0 = path_graph()
    g1 = SkeletonGraph.build(["a", "m", "b"],
                             [("e1", "a", "m", 1), ("e2", "m", "b", 1)])
    r = Refinement(g0, g1, {"a": "a", "b": "b"},
                   {"e": [("e1", 1), ("e2", 1)]})
    g2 = SkeletonGraph.build(["a", "m", "b", "t", "s"],
                             [("f1", "a", "m", 1), ("f2", "m", "b", 1),
                              ("h1", "m", "t", 1), ("h2", "m", "s", 2)])
    r2 = Refinement(g1, g2, {"a": "a", "m": "m", "b": "b"},
                    {"e1": [("f1", 1)], "e2": [("f2", 1)]})
    tower = SkeletonTower((g0, g1, g2), (r, r2))
    # two hanging points retract to m at every proper level: not separated
    with pytest.raises(NotSeparatedError):
        tower_separation(tower, GraphPoint.at_vertex("t"),
                         GraphPoint.at_vertex("s"))
    # a hanging point and an interior point separate at level 0
    level = tower_separation(tower, GraphPoint.at_vertex("t"),
                             GraphPoint.on_edge("f1", Fraction(1, 2)))
    assert level == 0


def test_separation_at_subdivision_level():
    # two interior points of a level-1 edge collapse to the same level-0
    # point (the attachment of the hanging edge) and separate exactly when
    # that edge is subdivided
    g0 = path_graph()
    g1 = SkeletonGraph.build(["a", "m", "b", "t"],
                             [("e1", "a", "m", 1), ("e2", "m", "b", 1),
                              ("h", "m", "t", 2)])
    r01 = Refinement(g0, g1, {"a": "a", "b": "b"},
                     {"e": [("e1", 1), ("e2", 1)]})
    g2 = SkeletonGraph.build(["a", "m", "b", "c", "t"],
                             [("f1", "a", "m", 1), ("f2", "m", "b", 1),
                              ("h1", "m", "c", 1), ("h2", "c", "t", 1)])
    r12 = Refinement(g1, g2, {"a": "a", "m": "m", "b": "b", "t": "t"},
                     {"e1": [("f1", 1)], "e2": [("f2", 1)],
                      "h": [("h1", 1), ("h2", 1)]})
    tower = SkeletonTower((g0, g1, g2), (r01, r12))
    x = GraphPoint.on_edge("h1", Fraction(1, 2))
    y = GraphPoint.on_edge("h2", Fraction(1, 2))
    assert tower.images(x)[0] == tower.images(y)[0]  # both collapse to m
    assert tower_separation(tower, x, y) == 1


def test_separation_rejects_equal_points():
    tower = random_tower(3, 1)
    e = tower.graphs[-1].edges[0]
    x = GraphPoint.on_edge(e.id, Fraction(0))
    y = GraphPoint.at_vertex(e.u)
    with pytest.raises(ValueError):
        tower_separation(tower, x, y)


# ------------------------------------------------------------ subdivision


def test_subdivision_single_level():
    s = SubdivisionSet(Fraction(2), ((Fraction(1),),))
    comp = subdivision_union(s)
    assert comp.points == (EdgeEnd.LOWER, Fraction(1), EdgeEnd.UPPER)


def test_subdivision_dyadic_merge_and_reversal():
    L = Fraction(1)
    lv1 = (Fraction(1, 2),)
    lv2 = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    comp = subdivision_union(SubdivisionSet(L, (lv1, lv2)))
    assert comp.cuts == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    # reversal is order-reversing on points and involutive
    pts = comp.points
    mapped = [comp.reversal(t) for t in pts]
    assert mapped[0] is EdgeEnd.UPPER and mapped[-1] is EdgeEnd.LOWER
    back = [comp.reversal(t) for t in mapped]
    assert list(pts) == back


def test_subdivision_inclusion_violation():
    with pytest.raises(ValueError):
        SubdivisionSet(Fraction(1), ((Fraction(1, 2),), (Fraction(1, 3),)))


def test_subdivision_strictly_increasing_output():
    rng = random.Random(17)
    L = Fraction(3)
    level1 = sorted({L * Fraction(rng.randint(1, 7), 8) for _ in range(3)})
    level2 = sorted(set(level1) | {L * Fraction(rng.randint(1, 15), 16)})
    comp = subdivision_union(SubdivisionSet(L, (tuple(level1), tuple(level2))))
    assert list(comp.cuts) == sorted(set(level2))
    assert all(comp.cuts[i] < comp.cuts[i + 1] for i in range(len(comp.cuts) - 1))


def test_graph_json_roundtrip():
    g = subdivided_with_tree()
    assert graph_json(SkeletonGraph.from_json(graph_json(g))) == graph_json(g)


@pytest.mark.parametrize("given, length", [(Fraction(3, 2), Fraction(3, 2)),
                                           (2, Fraction(2)), ("3/4", Fraction(3, 4))])
def test_edge_keeps_a_fraction_and_coerces_anything_else(given, length):
    for e in (skeleton.Edge("e", "a", "b", given),
              SkeletonGraph.build(["a", "b"], [("e", "a", "b", given)]).edge_map["e"]):
        assert type(e.length) is Fraction and e.length == length
        assert (e.length is given) == (type(given) is Fraction)


@pytest.mark.parametrize("length", [Fraction(0), Fraction(-1, 2), 0, "-3"])
def test_edge_refuses_a_length_that_is_not_positive(length):
    with pytest.raises(ValueError, match="edge e: length must be positive"):
        skeleton.Edge("e", "a", "b", length)


@pytest.mark.parametrize("given, offset", [(Fraction(1, 3), Fraction(1, 3)),
                                           (1, Fraction(1)), ("1/4", Fraction(1, 4))])
def test_graph_point_keeps_a_fraction_offset_and_coerces_anything_else(given, offset):
    pt = GraphPoint.on_edge("e", given)
    assert type(pt.offset) is Fraction and pt.offset == offset
    assert (pt.offset is given) == (type(given) is Fraction)
    assert GraphPoint.at_vertex("a").offset is None


@pytest.mark.parametrize("sign", [True, 1.0])
def test_a_step_sign_must_be_an_int(sign):
    # True passed the +-1 test and was stored as the step's sign in edge_loc
    with pytest.raises(ValueError, match="^path orientations must be \\+-1$"):
        Refinement(path_graph(), path_graph(), {"a": "a", "b": "b"},
                   {"e": [("e", sign)]})


def test_an_edge_length_must_not_be_a_bool():
    # True was read as the length 1
    with pytest.raises(ValueError, match="^not a rational number: True$"):
        skeleton.Edge("e", "a", "b", True)
    with pytest.raises(ValueError, match="^not a rational number: True$"):
        SkeletonGraph.build(["a", "b"], [("e", "a", "b", True)])


def test_a_graph_point_offset_must_not_be_a_bool():
    # True was read as the offset 1
    with pytest.raises(ValueError, match="^not a rational number: True$"):
        GraphPoint.on_edge("e", True)


@pytest.mark.parametrize("length, levels", [(True, ()), (Fraction(2), ((True,),))])
def test_a_subdivision_length_or_cut_must_not_be_a_bool(length, levels):
    # True was read as the length or the cut 1
    with pytest.raises(ValueError, match="^not a rational number: True$"):
        SubdivisionSet(length, levels)


def test_a_reversal_point_must_not_be_a_bool():
    comp = subdivision_union(SubdivisionSet(Fraction(2), ((Fraction(1),),)))
    with pytest.raises(ValueError, match="^not a rational number: True$"):
        comp.reversal(True)
