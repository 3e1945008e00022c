import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.words
from raag.graph import complete_graph, cycle_graph, empty_graph, path_graph
from raag.growth import phi_A, phi_R
from raag.words import (IDENTITY, GroupWord, _follow, _slot,
                        canonicalize_trace, enumerate_traces, format_word,
                        geodesic_words, invert, multiply, parse_word,
                        reduce_word, sphere_sizes, word_length)

from conftest import SUITE, graphs_st, random5_graph
from oracles import ball, m3_orbit, m_move_closure, piling_is_identity

P3 = path_graph(3)
R5 = random5_graph()

syllables_st = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
              st.integers(min_value=-2, max_value=2).filter(lambda e: e != 0)),
    max_size=5,
)


def test_parse_format_roundtrip():
    w = parse_word("a^2 b^-1 c", P3)
    assert format_word(w) == "a^2 b^-1 c"
    assert parse_word("1", P3) == IDENTITY
    assert format_word(IDENTITY) == "1"


def test_parse_rejects_unknown_generator():
    from raag.errors import UnknownGeneratorError
    with pytest.raises(UnknownGeneratorError):
        parse_word("a z", P3)


def test_reduce_merges_and_cancels():
    assert format_word(reduce_word(parse_word("a a^-1", P3).syllables, P3)) == "1"
    assert format_word(reduce_word(parse_word("a^2 a^-2", P3).syllables, P3)) == "1"
    # a and b commute in P3 (edge a-b), so the commutator dies
    assert format_word(reduce_word(parse_word("a b a^-1 b^-1", P3).syllables, P3)) == "1"
    # a and c do not commute
    assert reduce_word(parse_word("a c a^-1 c^-1", P3).syllables, P3) != IDENTITY


def test_canonical_trace_examples():
    # in P3 (edges a-b, b-c) the pair {a,c} is the only non-edge
    assert canonicalize_trace(("b", "a"), P3) == ("a", "b")
    assert canonicalize_trace(("c", "a"), P3) == ("c", "a")
    assert canonicalize_trace(("c", "b", "a"), P3) == ("b", "c", "a")


def test_canonical_trace_is_orbit_minimum():
    for trace in itertools.product(R5.vertices, repeat=3):
        orbit = m3_orbit(trace, R5)
        key = lambda t: tuple(R5.index(v) for v in t)
        assert canonicalize_trace(trace, R5) == min(orbit, key=key)


def _vertex_key(g):
    return lambda t: tuple(g.index(v) for v in t)


@st.composite
def graph_and_word_st(draw):
    g = draw(graphs_st())
    word = draw(st.lists(st.sampled_from(g.vertices), max_size=7))
    return g, tuple(word)


@settings(max_examples=150, deadline=None)
@given(graph_and_word_st())
def test_canonical_trace_is_orbit_minimum_on_random_graphs(gw):
    g, word = gw
    assert canonicalize_trace(word, g) == min(m3_orbit(word, g),
                                              key=_vertex_key(g))


@settings(max_examples=40, deadline=None)
@given(graphs_st(), st.integers(0, 4))
def test_enumerate_traces_on_random_graphs(g, n):
    traces = enumerate_traces(g, n)
    key = _vertex_key(g)
    assert traces == sorted(set(traces), key=key)  # sorted, no duplicates
    for t in traces:
        assert len(t) == n
        assert t == min(m3_orbit(t, g), key=key)  # lex-normal
    assert len(traces) == phi_R(g, n + 1)[n]


@settings(max_examples=60, deadline=None)
@given(syllables_st)
def test_inverse_cancels(sylls):
    w = reduce_word(sylls, R5)
    assert multiply(w, invert(w, R5), R5) == IDENTITY
    assert multiply(invert(w, R5), w, R5) == IDENTITY


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(R5), graphs_st()), st.data())
def test_multiply_matches_piling_oracle(g, data):
    sylls = st.lists(
        st.tuples(st.sampled_from(g.vertices),
                  st.integers(min_value=-2, max_value=2).filter(lambda e: e != 0)),
        max_size=5)
    s1, s2 = data.draw(sylls), data.draw(sylls)
    prod = multiply(reduce_word(s1, g), reduce_word(s2, g), g)
    flat = []
    for v, e in s1 + s2:
        flat.extend([(v, 1 if e > 0 else -1)] * abs(e))
    assert (prod == IDENTITY) == piling_is_identity(flat, g)


@settings(max_examples=40, deadline=None)
@given(syllables_st)
def test_normal_form_invariant_on_m_move_class(sylls):
    g = P3
    sylls = [(v, e) for v, e in sylls if v in g.vertices][:3]
    nf = reduce_word(sylls, g)
    for other in m_move_closure(tuple(sylls), g, limit=400):
        assert reduce_word(other, g) == nf


@settings(max_examples=100, deadline=None)
@given(graphs_st(max_vertices=4), st.data())
def test_reduced_word_stays_reduced_after_cancellation(g, data):
    # few vertices and small exponents make syllables cancel in mid-word;
    # the one pass must leave no move that lowers the syllable count
    sylls = data.draw(st.lists(
        st.tuples(st.sampled_from(g.vertices),
                  st.sampled_from([-2, -1, 1, 2])), max_size=8))
    u = reduce_word(sylls, g)
    word = tuple((s.generator, s.exponent) for s in u.syllables)
    assert min(map(len, m_move_closure(word, g))) == len(word)
    assert (u == IDENTITY) == piling_is_identity(sylls, g)


def test_multiply_pushes_each_syllable_once(monkeypatch):
    # U.U^-1 cancels syllable after syllable; each cancellation leaves the
    # word reduced, so no syllable is pushed again
    g = cycle_graph(5)
    rng = random.Random(11)
    u = reduce_word([(rng.choice(g.vertices), rng.choice([-3, -2, -1, 1, 2, 3]))
                     for _ in range(4000)], g)
    ui = invert(u, g)
    assert len(u) == len(ui) > 2000
    pushes = [0]
    real_push = raag.words._push

    def counting_push(*args):
        pushes[0] += 1
        return real_push(*args)

    monkeypatch.setattr(raag.words, "_push", counting_push)
    assert multiply(u, ui, g) == IDENTITY
    assert pushes[0] == 2 * len(u)


@pytest.mark.parametrize("walk, message", [
    (enumerate_traces, "degree must be nonnegative"),
    (lambda g, r: next(geodesic_words(g, r)), "radius must be nonnegative"),
], ids=["traces", "geodesics"])
def test_enumerations_reject_a_negative_size(walk, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        walk(path_graph(3), -1)


def test_enumerate_traces_counts():
    # free case: n^d words of length d, all distinct
    e2 = empty_graph(2)
    assert [len(enumerate_traces(e2, d)) for d in range(4)] == [1, 2, 4, 8]
    # commutative case: multisets
    k2 = complete_graph(2)
    assert [len(enumerate_traces(k2, d)) for d in range(4)] == [1, 2, 3, 4]
    assert len(enumerate_traces(P3, 2)) == 7


def test_traces_are_canonical_and_sorted():
    for g in SUITE.values():
        traces = enumerate_traces(g, 3)
        assert len(set(traces)) == len(traces)
        for t in traces:
            assert canonicalize_trace(t, g) == t


def test_ball_and_spheres():
    k2 = complete_graph(2)
    # Z^2: ball of radius 1 is {1, a, a^-1, b, b^-1}
    assert len(ball(k2, 1)) == 5
    assert sphere_sizes(k2, 2) == [1, 4, 8]
    e2 = empty_graph(2)
    assert sphere_sizes(e2, 3) == [1, 4, 12, 36]


def _letters(u: GroupWord) -> tuple[tuple[str, int], ...]:
    return tuple((s.generator, 1 if s.exponent > 0 else -1)
                 for s in u.syllables for _ in range(abs(s.exponent)))


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=6), st.integers(0, 4))
def test_streamed_spheres_match_bfs_and_phi_a(g, r):
    bfs = [0] * (r + 1)
    for u in ball(g, r):
        bfs[word_length(u)] += 1
    assert sphere_sizes(g, r) == bfs == phi_A(g, r + 1)


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=6), st.integers(0, 4))
def test_streamed_words_are_distinct_normal_forms(g, r):
    words = list(geodesic_words(g, r))
    assert len(set(words)) == len(words)
    for w in words:
        u = reduce_word(w, g)
        assert _letters(u) == w  # already reduced and lex-normal
        assert word_length(u) == len(w)  # geodesic


def test_sphere_sizes_reduce_nothing(monkeypatch):
    # the stream visits each element of the ball once, extending each word
    # shorter than r by the letters of its follow set, and neither inserts
    # a letter nor reduces a word
    def no_reduce(*args):
        raise AssertionError("sphere_sizes called reduce_word")

    slots = [0]
    real_slot = raag.words._slot

    def counting_slot(*args):
        slots[0] += 1
        return real_slot(*args)

    g = cycle_graph(5)
    a = phi_A(g, 6)
    monkeypatch.setattr(raag.words, "reduce_word", no_reduce)
    monkeypatch.setattr(raag.words, "_slot", counting_slot)
    assert sphere_sizes(g, 5) == a
    assert slots[0] == 0
    assert enumerate_traces(g, 5) and slots[0] == 0


@st.composite
def graph_and_trace_st(draw):
    g = draw(graphs_st())
    word = draw(st.lists(st.sampled_from(g.vertices), max_size=8))
    return g, canonicalize_trace(word, g)


@settings(max_examples=150, deadline=None)
@given(graph_and_trace_st())
def test_follow_set_is_where_slot_lands_at_the_end(gt):
    # the follow set stepped along the trace from every letter holds x
    # exactly when the insertion kernel leaves x at the end
    g, t = gt
    keep, reset = _follow(g)
    follow = (1 << len(g.vertices)) - 1
    for v in t:
        i = g.index(v)
        follow = follow & keep[i] | reset[i]
    for i, v in enumerate(g.vertices):
        assert bool(follow >> i & 1) == (_slot(t, v, g) == len(t))


def test_word_length():
    assert word_length(parse_word("a^3 c^-2", P3)) == 5
    assert word_length(IDENTITY) == 0
