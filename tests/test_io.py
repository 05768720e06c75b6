"""Formats, embedding, and corpus generation."""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import dpcolor
from dpcolor import (CorpusSpec, DocumentSyntaxError, GraphDocument,
                     NotPlanar, TooLargeToEmbed, class_membership,
                     corpus_generate,
                     document_cover, embed_planar, load_document, parse,
                     parse_graph6, parse_planar_code, parse_rotation_text,
                     serialize_rotation_text)
from dpcolor.io import _all_connected_graphs
from oracles import connected_graphs_mask_scan


def test_rotation_text_round_trip(w4, hex_prism):
    for g in (w4, hex_prism):
        text = serialize_rotation_text(g)
        doc = parse_rotation_text(text)
        h = parse(doc)
        assert h.rotations == g.rotations
        assert h.outer_face_id == g.outer_face_id
        assert serialize_rotation_text(h) == text


def test_rotation_text_cover_payload(c4):
    text = """4
1 3
2 0
3 1
0 2
covers:
0 1: 1>2 2>1
1 2: 1>1 2>2
"""
    doc = parse_rotation_text(text)
    g = parse(doc)
    cover = document_cover(doc, g, 2)
    assert cover.matching(0, 1) == ((1, 2), (2, 1))
    assert cover.matching(1, 2) == ((1, 1), (2, 2))
    assert cover.matching(2, 3) == ()  # omitted edges carry empty matchings


def test_rotation_text_errors():
    with pytest.raises(DocumentSyntaxError):
        parse_rotation_text("")
    with pytest.raises(DocumentSyntaxError):
        parse_rotation_text("x\n")
    with pytest.raises(DocumentSyntaxError):
        parse_rotation_text("2\n1\n0\nwhat\n")


def test_parse_rejects_document_without_graph():
    with pytest.raises(DocumentSyntaxError):
        parse(GraphDocument("graph6", 3))


def test_graph6_k4():
    doc = parse_graph6("C~")
    assert doc.vertex_count == 4 and len(doc.edges) == 6
    g = parse(doc)
    assert len(g.faces) == 4


def test_graph6_matches_networkx():
    import networkx as nx
    for s in ("C~", "DQc", "E?bo", "Dhc"):
        doc = parse_graph6(s)
        want = nx.from_graph6_bytes(s.encode())
        assert doc.vertex_count == want.number_of_nodes()
        assert {tuple(sorted(e)) for e in doc.edges} \
            == {tuple(sorted(e)) for e in want.edges()}


def test_graph6_k5_not_planar():
    with pytest.raises(NotPlanar):
        parse(parse_graph6("D~{"))


def test_planar_code_triangle():
    data = bytes([3, 2, 3, 0, 3, 1, 0, 1, 2, 0])
    doc = parse_planar_code(data)
    g = parse(doc)
    assert g.vertex_count == 3 and len(g.faces) == 2
    with_header = b">>planar_code<<" + data
    assert parse_planar_code(with_header).rotations == doc.rotations


def test_embed_planar_examples():
    k4 = embed_planar(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert len(k4.faces) == 4
    with pytest.raises(NotPlanar):
        embed_planar(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    k33 = [(i, j + 3) for i in range(3) for j in range(3)]
    with pytest.raises(NotPlanar):
        embed_planar(6, k33)
    with pytest.raises(TooLargeToEmbed):
        embed_planar(20, [(0, 1)])


def test_load_document_detects_formats(c4):
    rot = serialize_rotation_text(c4).encode()
    assert load_document(rot).format == "rotation-text"
    assert load_document(b"C~").format == "graph6"
    assert load_document(b">>planar_code<<" + bytes([3, 2, 3, 0, 3, 1, 0,
                                                     1, 2, 0])).format \
        == "planar-code"


def test_corpus_deterministic():
    spec = CorpusSpec(5, 7, "g1", seed=99, per_size_samples=4)
    a = [g.rotations for g in corpus_generate(spec)]
    b = [g.rotations for g in corpus_generate(spec)]
    assert a == b and len(a) > 0


def test_corpus_empty_range():
    assert list(corpus_generate(CorpusSpec(5, 4))) == []
    # no connected graph has 0 vertices
    assert [g.vertex_count for g in corpus_generate(CorpusSpec(0, 2))] == [1, 2]


def test_descent_matches_mask_scan():
    # the same edge lists in the same order as scanning every bitmask
    for n in range(7):
        assert list(_all_connected_graphs(n)) \
            == list(connected_graphs_mask_scan(n))


def test_corpus_counts_at_seven_vertices():
    # connected graphs (OEIS A001349) and connected planar graphs (A003094)
    assert sum(1 for _ in _all_connected_graphs(7)) == 853
    spec = CorpusSpec(7, 7, exhaustive_limit=7)
    assert sum(1 for _ in corpus_generate(spec)) == 646


def test_networkx_loaded_only_to_embed(tmp_path, c4):
    # a fresh interpreter: importing the package and reading a rotation
    # system leave networkx unloaded; graph6 input still embeds through it
    rot = tmp_path / "c4.rot"
    rot.write_text(serialize_rotation_text(c4))
    g6 = tmp_path / "k4.g6"
    g6.write_text("C~\n")
    script = f"""
import sys
import dpcolor
assert "networkx" not in sys.modules
from dpcolor.cli import main
assert main(["faces", {str(rot)!r}]) == 0
assert "networkx" not in sys.modules
assert main(["faces", {str(g6)!r}]) == 0
assert "networkx" in sys.modules
"""
    src = str(Path(dpcolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("face ") == 2 + 4


def _nx(g):
    graph = nx.Graph()
    graph.add_nodes_from(range(g.vertex_count))
    graph.add_edges_from(g.edges())
    return graph


def test_corpus_filter_contains_k4_not_w5(corpus_g1_n6):
    k4 = nx.complete_graph(4)
    w5 = nx.wheel_graph(6)
    members = [_nx(g) for g in corpus_g1_n6]
    assert any(nx.is_isomorphic(k4, h) for h in members)
    assert not any(nx.is_isomorphic(w5, h) for h in members)
    for g in corpus_g1_n6:
        assert class_membership(g).in_g1


def test_corpus_connectivity_filter():
    graphs = list(corpus_generate(CorpusSpec(4, 5, connectivity=3)))
    assert graphs
    # K4 is 3-connected and must appear; trees must not
    assert all(min(g.degree(v) for v in range(g.vertex_count)) >= 3
               for g in graphs)


def test_corpus_reparse_isomorphic(corpus_n6):
    for g in corpus_n6[:20]:
        text = serialize_rotation_text(g)
        h = parse(parse_rotation_text(text))
        assert nx.is_isomorphic(_nx(g), _nx(h))
        assert h.rotations == g.rotations


def test_corpus_dedupes_isomorphs(corpus_n6):
    members = [_nx(g) for g in corpus_n6]
    assert not any(nx.is_isomorphic(a, b)
                   for a, b in itertools.combinations(members, 2))


def test_corpus_fixtures_pinned(corpus_n6, corpus_g1_n9, corpus_g2_n9):
    # every rotation system, outer face and the order of the shared
    # corpora; the acceptance criteria read these fixtures
    def digest(corpus):
        return hashlib.sha256(repr([(g.rotations, g.outer_face_id)
                                    for g in corpus]).encode()).hexdigest()[:16]
    assert digest(corpus_n6) == "56ffe897450ce02d"
    assert digest(corpus_g1_n9) == "c1e18de456deaaf2"
    assert digest(corpus_g2_n9) == "a75dafe2c89429bc"
