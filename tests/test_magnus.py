import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.magnus
from raag.graph import complete_graph, cycle_graph, empty_graph, path_graph
from raag.koszul import verify_resolution
from raag.magnus import (_binomials, _syllable_step, injectivity_witness,
                         leading_monomial_char_p, magnus, magnus_exp,
                         omega_p_valuation, omega_valuation)
from raag.series import Fp, PCSeries, Q, Z, exp_series, is_grouplike
from raag.words import (IDENTITY, GroupWord, Syllable, format_word, invert,
                        multiply, parse_word, reduce_word)

from conftest import SUITE, random5_graph
from oracles import _syllable_image, ball, bigraded_ranks

P3 = path_graph(3)
R5 = random5_graph()

syllables_st = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
              st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0)),
    max_size=4,
)


def test_generator_image():
    x = magnus(parse_word("a", P3), P3, Z, 4)
    assert x.constant_term() == 1
    assert x.coefficient(("a",)) == 1
    assert len(x.sorted_terms()) == 2


def test_inverse_image_is_geometric_series():
    x = magnus(parse_word("a^-1", P3), P3, Z, 5)
    for k in range(5):
        assert x.coefficient(("a",) * k) == (-1) ** k


def test_positive_power_binomials():
    from math import comb
    x = magnus(parse_word("a^3", P3), P3, Z, 4)
    for k in range(4):
        assert x.coefficient(("a",) * k) == comb(3, k)


@settings(max_examples=40, deadline=None)
@given(syllables_st, syllables_st)
def test_multiplicative(s1, s2):
    w1 = reduce_word(s1, R5)
    w2 = reduce_word(s2, R5)
    prod = multiply(w1, w2, R5)
    m = lambda w: magnus(w, R5, Z, 4)
    assert m(prod) == m(w1) * m(w2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(R5.vertices), max_size=5),
                          st.integers(-9, 9)), max_size=6),
       st.sampled_from(R5.vertices),
       st.integers(-4, 4).filter(lambda e: e != 0),
       st.sampled_from([Z, Q, Fp(2), Fp(3)]),
       st.integers(1, 6))
def test_syllable_step_is_product_with_syllable_image(terms, v, e, dom, order):
    y = PCSeries.from_terms(terms, R5, dom, order)
    assert (_syllable_step(y, v, _binomials(e, order), {})
            == y * _syllable_image(v, e, R5, dom, order))


@settings(max_examples=40, deadline=None)
@given(syllables_st)
def test_inverse_maps_to_inverse(sylls):
    w = reduce_word(sylls, R5)
    one = magnus(IDENTITY, R5, Z, 4)
    assert magnus(w, R5, Z, 4) * magnus(invert(w, R5), R5, Z, 4) == one


def test_magnus_exp_grouplike():
    w = parse_word("a^2 c^-1", P3)
    assert is_grouplike(magnus_exp(w, P3, 5))


@settings(max_examples=60, deadline=None)
@given(syllables_st, st.integers(1, 6))
def test_magnus_exp_is_product_of_exponentials(sylls, order):
    w = reduce_word(sylls, R5)
    prod = PCSeries.one(R5, Q, order)
    for s in w.syllables:
        v = PCSeries.generator(s.generator, R5, Q, order)
        prod = prod * exp_series(v.scale(s.exponent))
    assert magnus_exp(w, R5, order) == prod


def test_omega_valuation_examples():
    g = empty_graph(2)
    # [a,b] has valuation 2 in the free group
    comm = parse_word("a b a^-1 b^-1", g)
    v = omega_valuation(comm, g, Q, 6)
    assert v.decided and v.value == 2
    v = omega_valuation(parse_word("a", g), g, Q, 6)
    assert v.decided and v.value == 1
    v = omega_valuation(IDENTITY, g, Q, 6)
    assert not v.decided  # identity: valuation is +infinity at any order


def test_omega_p_valuation_weights_coefficients():
    g = empty_graph(2)
    # mu(a^2)-1 = 2a + a^2: over p=2 the weight of 2a is 1+1=2, of a^2 is 2
    v = omega_p_valuation(parse_word("a^2", g), g, 2, 6)
    assert v.decided and v.value == 2
    # over p=3, the 2a term has weight 1
    v = omega_p_valuation(parse_word("a^2", g), g, 3, 6)
    assert v.decided and v.value == 1


def test_dimension_subgroup_membership():
    g = empty_graph(2)
    comm = parse_word("a b a^-1 b^-1", g)
    assert omega_valuation(comm, g, Q, 6).membership(2) == "in"
    assert omega_valuation(comm, g, Q, 6).membership(3) == "out"
    assert omega_valuation(IDENTITY, g, Q, 6).membership(5) == "in"
    # truncation order too low to decide for a trivial-looking element
    assert omega_valuation(IDENTITY, g, Q, 6).membership(8) == "undecided"


def test_leading_monomial_simple_cases():
    g = empty_graph(2)
    # a^p over F_p: leading monomial a^p with coefficient 1
    for p in (2, 3, 5):
        lm = leading_monomial_char_p(parse_word(f"a^{p}", g), g, p)
        assert lm.trace == ("a",) * p and lm.coefficient % p == 1
    # a^6 = a^{2*3}: over F_3 leading monomial (a^3)^... s=1, l=2 -> a^3 coeff 2
    lm = leading_monomial_char_p(parse_word("a^6", g), g, 3)
    assert lm.trace == ("a",) * 3 and lm.coefficient % 3 == 2


def test_leading_monomial_matches_brute_force():
    rng = random.Random(7)
    words = list(ball(R5, 2))
    for _ in range(30):
        sylls = [(rng.choice(R5.vertices), rng.choice([-2, -1, 1, 2, 3]))
                 for _ in range(rng.randrange(1, 4))]
        words.append(reduce_word(sylls, R5))
    from oracles import leading_monomial_bruteforce
    for p in (2, 3):
        for w in words:
            if w == IDENTITY:
                continue
            lm = leading_monomial_char_p(w, R5, p)
            trace, coeff = leading_monomial_bruteforce(w, R5, p, len(lm.trace) + 2)
            assert trace == lm.trace
            assert coeff == lm.coefficient % p


def test_injectivity_witness_none_at_safe_order():
    assert injectivity_witness(P3, 2, 6, Q) is None
    assert injectivity_witness(P3, 2, 6, Fp(2)) is None


# (radius, order, domain) -> the witness on each suite graph where there is
# one, as found by reducing each ball element and applying `magnus` to it;
# over F_2, (1+v)^4 = 1 + v^4 = (1+v)^-4 below degree 7
WITNESSES = {
    (3, 7, Fp(2)): {},
    (3, 5, Q): {},
    (4, 7, Fp(2)): {"K3": ("c^4", "c^-4"), "E3": ("c^4", "c^-4"),
                    "P3": ("c^4", "c^-4"), "C4": ("d^4", "d^-4"),
                    "C5": ("e^4", "e^-4"), "R5": ("e^4", "e^-4")},
    (4, 4, Fp(3)): {"E3": ("c b c^-2", "c^-2 b c"),
                    "P3": ("c a c^-2", "c^-2 a c"),
                    "C4": ("d b d^-2", "d^-2 b d"),
                    "C5": ("e c e^-2", "e^-2 c e"),
                    "R5": ("e d e^-2", "e^-2 d e")},
}


@pytest.mark.parametrize("case", list(WITNESSES))
def test_injectivity_witness_steps_from_prefixes(case, monkeypatch):
    # each ball element's image is its prefix's image times one letter
    def no_magnus(*args):
        raise AssertionError("injectivity_witness called magnus")

    monkeypatch.setattr(raag.magnus, "magnus", no_magnus)
    r, order, dom = case
    for name, g in SUITE.items():
        wit = injectivity_witness(g, r, order, dom)
        got = None if wit is None else tuple(map(format_word, wit))
        assert got == WITNESSES[case].get(name)


def test_injectivity_witness_forms_each_append_once(monkeypatch):
    # the ball of radius 3 on C5 needs 10,630 appends t.v, but only 1,130
    # distinct ones: u.x and u.x^-1 append x to the same terms
    formed = []
    real_concat = raag.magnus._concat

    def counting(t, letters, g):
        formed.append((t, tuple(letters)))
        return real_concat(t, letters, g)

    monkeypatch.setattr(raag.magnus, "_concat", counting)
    assert injectivity_witness(cycle_graph(5), 3, 7, Fp(2)) is None
    assert len(formed) == len(set(formed)) == 1130


def _memoised_answers(name):
    """The answers on a suite graph of every entry point that keeps a
    product memo, each beside the same answer by a route without one."""
    g = SUITE[name]
    w = parse_word("b c a^-2 c", g)
    stepped = PCSeries.one(g, Z, 5)
    for s in w.syllables:
        stepped = stepped * _syllable_image(s.generator, s.exponent, g, Z, 5)
    wit = injectivity_witness(g, 4, 4, Fp(3))
    return [
        (verify_resolution(g, 5, Q).checked, sum(bigraded_ranks(g, 5).values())),
        (magnus(w, g, Z, 5), stepped),
        (None if wit is None else tuple(map(format_word, wit)),
         WITNESSES[(4, 4, Fp(3))].get(name)),
    ]


def test_memos_live_for_one_call():
    # K3, E3 and P3 share their vertex names, but b.a is (a, b) on K3 and
    # P3 and (b, a) on E3, and c.a is (a, c) on K3 only: a product memo
    # that outlived its call would hand one graph's products to another.
    # Every answer must be right, and equal to the graph's first answer,
    # in every order of the graphs.
    first = {}
    for order in permutations(("K3", "E3", "P3")):
        for name in order:
            got = _memoised_answers(name)
            for memoised, direct in got:
                assert memoised == direct, (order, name)
            assert got == first.setdefault(name, got), (order, name)
