import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentaplanar.enumeration import _code_graph6, _code_rotations, _rows, corpus, corpus_codes
from pentaplanar.graphs import (
    GRAPH6_HEADER,
    Graph,
    GraphError,
    _decode_g6_size,
    _encode_g6_size,
    _graph6,
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
    with pytest.raises(GraphError, match="invalid graph6 byte"):
        parse_graph6("C!")  # a body byte below 63


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


def _parse_graph6_reference(text: str) -> Graph:
    """Reference decoder: every body byte expanded into six bits, every bit
    of the column-major upper triangle into an edge, and the edges through
    the validating `Graph` constructor."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :].strip()
    if not s:
        raise GraphError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphError(f"non-ASCII character in graph6 string {s!r}") from None
    if any(b < 63 or b > 126 for b in data):
        raise GraphError(f"invalid graph6 byte in {s!r}")
    n, pos = _decode_g6_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise GraphError(
            f"graph6 body length {len(data) - pos} != expected {need} for n={n}"
        )
    bits = []
    for byte in data[pos:]:
        val = byte - 63
        bits.extend((val >> shift & 1) for shift in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph(n, edges)


def test_parse_matches_reference_on_random_graphs():
    rng = random.Random(6006)
    for n in list(range(0, 30)) + [40, 62, 63, 64, 65, 80, 99, 100]:
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            text = to_graph6(g)
            parsed = parse_graph6(text)
            assert parsed == _parse_graph6_reference(text) == g, (n, p)
            assert parsed.neighbors == g.neighbors


def test_parse_matches_reference_on_corpus():
    for n in range(4, 10):
        for emb in corpus(n):
            text = to_graph6(emb.graph)
            assert parse_graph6(text) == _parse_graph6_reference(text) == emb.graph


def _graph6_reference(n: int, rows) -> str:
    """Reference encoder: the upper triangle written out as a '0'/'1'
    string, column by column, and parsed back six characters at a time."""
    bits = "".join(format(rows[v] & ~(-1 << v), f"0{v}b")[::-1]
                   for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return (_encode_g6_size(n) + body).decode("ascii")


def test_encoder_matches_reference_on_random_graphs():
    rng = random.Random(6007)
    for n in list(range(0, 30)) + [40, 62, 63, 64, 65, 80, 99, 100]:
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            assert _graph6(g.bitrows) == _graph6_reference(n, g.bitrows), (n, p)


def test_code_encoder_matches_reference_on_corpus():
    for n in range(4, 12):
        for code in corpus_codes(n):
            rows = _rows(_code_rotations(code))
            assert _code_graph6(n, code) == _graph6(rows) == _graph6_reference(n, rows)


# each malformed row set (n is its length) with the error it raises; the
# checks run per row, range then loop, then symmetry row by row, lowest
# neighbour first; the ids are n and the entry's place alone
_BAD_ROWS = [
    ([0b010, 0b000, 0b000], "asymmetric rows: 1 in row 0, 0 not in row 1"),
    ([0b001, 0b000, 0b000], "self-loop at vertex 0"),
    ([0b110, 0b001], "row 0 has a neighbour out of range for n=2"),
    ([-1, 0b01], "row 0 has a neighbour out of range for n=2"),
    ([0b010, 0b101], "row 1 has a neighbour out of range for n=2"),
    # two asymmetric pairs: 2 in row 1 is reported before 0 in row 2
    ([0b000, 0b100, 0b001], "asymmetric rows: 2 in row 1, 1 not in row 2"),
]


@pytest.mark.parametrize(
    "rows, message", _BAD_ROWS, ids=[f"{len(rows)}-rows{i}" for i, (rows, _) in enumerate(_BAD_ROWS)]
)
def test_rows_constructor_rejects_bad_rows(rows, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        Graph._from_rows(rows)
