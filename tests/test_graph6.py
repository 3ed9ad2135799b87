import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaplanar.graphs import (
    Graph,
    GraphError,
    complete_graph,
    parse_edge_list_text,
    parse_graph6,
    parse_graph_text,
    to_edge_list_text,
    to_graph6,
)

from .conftest import graphs


def test_published_format_example():
    # the worked example from the format definition: n=5, edges 02 04 13 34
    g = Graph(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert to_graph6(g) == "DQc"
    assert parse_graph6("DQc") == g


def test_small_goldens():
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(Graph(0, [])) == "?"
    assert to_graph6(Graph(1, [])) == "@"
    assert parse_graph6("C~") == complete_graph(4)


def test_header_is_accepted():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_large_n_prefix_roundtrip():
    g = Graph(100, [(0, 99), (1, 2)])
    assert parse_graph6(to_graph6(g)) == g


def test_malformed_inputs():
    with pytest.raises(GraphError):
        parse_graph6("")
    with pytest.raises(GraphError):
        parse_graph6("C~~")  # body longer than n=4 needs
    with pytest.raises(GraphError):
        parse_graph6("C")  # body truncated


@given(graphs(max_n=12))
def test_graph6_roundtrip(g):
    assert parse_graph6(to_graph6(g)) == g


@given(graphs(max_n=12))
def test_edge_list_roundtrip(g):
    text = to_edge_list_text(g)
    assert parse_edge_list_text(text) == g
    # emitted edges are ascending and u < v
    lines = text.strip().splitlines()[1:]
    pairs = [tuple(map(int, ln.split())) for ln in lines]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)


def test_autodetect():
    g = complete_graph(4)
    assert parse_graph_text(to_graph6(g)) == g
    assert parse_graph_text(to_edge_list_text(g)) == g
    with pytest.raises(GraphError):
        parse_graph_text("C~", fmt="nonsense")


# arbitrary text, and text from the alphabet both formats are written in
_texts = st.text() | st.text(alphabet="0123456789 -\n?@ABC_~x>graph6<", max_size=60)


@settings(max_examples=300, deadline=None)
@given(_texts, st.sampled_from(["auto", "graph6", "edgelist"]))
def test_parse_graph_text_returns_or_raises_graph_error(text, fmt):
    try:
        g = parse_graph_text(text, fmt)
    except GraphError:
        return
    assert isinstance(g, Graph)
