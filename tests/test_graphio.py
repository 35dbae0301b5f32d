"""Text formats: graph6 and the multigraph edge-list format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcov import (
    Multigraph,
    canonical_form,
    decode_graph6,
    encode_graph6,
    format_mg,
    parse_graph_text,
    parse_mg,
)
from matchcov.graphio import parse_corpus_text
from matchcov.errors import (
    MalformedGraph6Error,
    MatchcovError,
    NotSimpleError,
    ParseError,
    VertexOutOfRangeError,
)
from matchcov.zoo import complete_graph, cycle_graph, petersen_graph
from conftest import multigraphs

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_graph6_round_trip(connected_simple_upto_6):
    for g in connected_simple_upto_6:
        s = encode_graph6(g)
        h = decode_graph6(s)
        assert h.n == g.n and h.m == g.m
        assert canonical_form(h) == canonical_form(g)


def test_graph6_known_strings():
    # standard encodings of standard graphs
    assert encode_graph6(complete_graph(4)) == "C~"
    assert decode_graph6("C~").m == 6
    k4 = decode_graph6(encode_graph6(complete_graph(4)))
    assert canonical_form(k4) == canonical_form(complete_graph(4))
    pet = decode_graph6(encode_graph6(petersen_graph()))
    assert canonical_form(pet) == canonical_form(petersen_graph())


def test_graph6_rejects_multigraph():
    g = Multigraph(2, [(0, 1), (0, 1)])
    with pytest.raises(NotSimpleError):
        encode_graph6(g)


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6Error):
        decode_graph6("C")  # truncated bit block
    with pytest.raises(MalformedGraph6Error):
        decode_graph6("")
    with pytest.raises(MalformedGraph6Error):
        decode_graph6("C~ C~")
    # Sizes spelled in a longer header than they need: the long form for
    # n = 0 and the medium form for n = 62.
    with pytest.raises(MalformedGraph6Error):
        decode_graph6("~~??????")
    with pytest.raises(MalformedGraph6Error):
        decode_graph6("~??}" + "?" * 316)


def test_mg_round_trip_with_multiplicity():
    g = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    text = format_mg(g)
    h = parse_mg(text)
    assert h.n == 4 and h.m == 5
    assert h.multiplicity(0, 1) == 2
    assert canonical_form(h) == canonical_form(g)


def test_mg_format_shape():
    g = cycle_graph(4)
    lines = format_mg(g).strip().splitlines()
    assert lines[0].split() == ["4", "4"]
    assert len(lines) == 5


def test_parse_mg_errors():
    with pytest.raises(ParseError):
        parse_mg("")
    with pytest.raises(ParseError):
        parse_mg("2 1\n0 1\n0 1\n")  # edge count mismatch
    with pytest.raises(ParseError):
        parse_mg("x y\n")
    # structural problems surface as the constructor's own errors
    with pytest.raises(MatchcovError):
        parse_mg("2 1\n0 5\n")  # vertex out of range
    with pytest.raises(MatchcovError):
        parse_mg("3 1\n1 1\n")  # loop


def test_parse_graph_text_sniffs_both():
    g = cycle_graph(6)
    assert canonical_form(parse_graph_text(format_mg(g))) == canonical_form(g)
    assert canonical_form(parse_graph_text(encode_graph6(g))) == canonical_form(g)
    multi = Multigraph(2, [(0, 1), (0, 1)])
    assert parse_graph_text(format_mg(multi)).m == 2


def test_parse_corpus_text_splits_on_blank_looking_lines():
    k4, c6 = complete_graph(4), cycle_graph(6)
    text = format_mg(k4) + "  \n\t\n" + format_mg(c6) + " \n" + encode_graph6(k4) + "\n " + encode_graph6(c6)
    forms = [canonical_form(g) for g in parse_corpus_text(text)]
    assert forms == [canonical_form(g) for g in (k4, c6, k4, c6)]
    with pytest.raises(ParseError, match="no graphs"):
        parse_corpus_text(" \n\t\n")
    # One header rule for a corpus block and for a single graph: a block
    # that opens with two integers is one .mg graph, whatever their signs.
    for parse in (parse_corpus_text, parse_graph_text):
        with pytest.raises(VertexOutOfRangeError, match="negative"):
            parse("-2 1\n0 1\n")


@PROPERTY_SETTINGS
@given(multigraphs(10, even=False))
def test_mg_and_graph6_round_trips(g):
    # .mg keeps every edge slot, in order.
    assert parse_graph_text(format_mg(g)) == g
    # graph6 keeps the underlying simple graph and refuses anything else.
    simple = g.underlying_simple()
    text = encode_graph6(simple)
    h = parse_graph_text(text)
    assert h.n == g.n and sorted(h.edges) == sorted(simple.edges)
    assert encode_graph6(h) == text
    if not g.is_simple():
        with pytest.raises(NotSimpleError):
            encode_graph6(g)


@PROPERTY_SETTINGS
@given(st.integers(0, 70).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=40),
    )
))
def test_graph6_round_trip_across_size_forms(case):
    # n = 63 and up takes the four-character size form.
    n, pairs = case
    g = Multigraph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    text = encode_graph6(g)
    assert (text[0] == "~") == (n >= 63)
    h = parse_graph_text(text)
    assert h.n == n and sorted(h.edges) == sorted(g.edges)
    assert parse_graph_text(format_mg(g)) == g
