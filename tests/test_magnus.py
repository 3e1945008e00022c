import os
import random
import subprocess
import sys
from itertools import permutations
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.magnus
from raag.graph import cycle_graph, empty_graph, path_graph
from raag.koszul import verify_resolution
from raag.magnus import (_binomials, _image, _omega, _syllable_step,
                         injectivity_witness, leading_monomial_char_p, magnus,
                         valuations)
from raag.series import DomainError, Fp, PCSeries, Q, Z
from raag.words import (IDENTITY, format_word, invert, multiply, parse_word,
                        reduce_word)

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
    x = magnus(parse_word("a^3", P3), P3, Z, 4)
    for k in range(4):
        assert x.coefficient(("a",) * k) == comb(3, k)


@pytest.mark.parametrize("e", range(-6, 7))
def test_binomials_step_matches_comb(e):
    # the step recurrence against the closed forms, past v^e for e >= 0
    for order in range(1, 13):
        if e >= 0:
            want = [comb(e, k) for k in range(min(e + 1, order))]
        else:
            want = [(-1) ** k * comb(-e + k - 1, k) for k in range(order)]
        assert _binomials(e, order) == want


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
    # the integer step, reduced into dom once, or mod p after the step
    y = PCSeries.from_terms(terms, R5, Z, order)
    want = (PCSeries.from_terms(terms, R5, dom, order)
            * _syllable_image(v, e, R5, dom, order))
    for p in {None, dom.p}:
        step = _syllable_step(y.coeffs, v, _binomials(e, order), order, R5, {},
                              p)
        assert PCSeries(R5, dom, order, step.items()) == want
        assert p is None or all(0 < c < p for c in step.values())


@pytest.mark.parametrize("text", ["", "a", "b c a^-2 c", "a b^3 c^-1 d e a"])
@pytest.mark.parametrize("dom", [Z, Q, Fp(3)])
def test_magnus_builds_one_series(text, dom, lincomb_inits):
    # the steps run on integer dicts: one series per call, for the answer,
    # whatever the syllable count
    magnus(parse_word(text, R5), R5, dom, 6)
    assert lincomb_inits == [PCSeries]


@pytest.mark.parametrize("order", [0, -3])
def test_image_rejects_order_below_one_before_any_charge(order, monkeypatch):
    charges = []
    monkeypatch.setattr(raag.magnus, "check_states",
                        lambda *args: charges.append(args))
    w = parse_word("a^-1 b", R5)
    with pytest.raises(DomainError, match="truncation order must be >= 1"):
        _image(w, R5, order)
    with pytest.raises(DomainError, match="truncation order must be >= 1"):
        magnus(w, R5, Q, order)
    assert charges == []


@settings(max_examples=60, deadline=None)
@given(syllables_st, st.integers(1, 8))
def test_printed_letters_are_bounded_by_the_charged_work(sylls, order):
    # a step's terms out number at most terms in x width, each with fewer
    # than `order` letters, so the letters of an answer never exceed the
    # letter work already charged under "magnus"
    w = reduce_word(sylls, R5)
    charged = [0]
    real = raag.magnus.check_states

    def recording(n, stage, cap):
        if stage == "magnus":
            charged.append(n)
        real(n, stage, cap)

    with patch.object(raag.magnus, "check_states", recording):
        image = _image(w, R5, order)
    assert len(charged) == len(w.syllables) + 1
    assert sum(len(t) for t in image) <= charged[-1]


@settings(max_examples=40, deadline=None)
@given(syllables_st)
def test_inverse_maps_to_inverse(sylls):
    w = reduce_word(sylls, R5)
    one = magnus(IDENTITY, R5, Z, 4)
    assert magnus(w, R5, Z, 4) * magnus(invert(w, R5), R5, Z, 4) == one


def test_omega_valuation_examples():
    g = empty_graph(2)
    # [a,b] has valuation 2 in the free group
    comm = parse_word("a b a^-1 b^-1", g)
    v = _omega(magnus(comm, g, Q, 6).coeffs, 6)
    assert v.decided and v.value == 2
    v = _omega(magnus(parse_word("a", g), g, Q, 6).coeffs, 6)
    assert v.decided and v.value == 1
    v = _omega(magnus(IDENTITY, g, Q, 6).coeffs, 6)
    assert not v.decided  # identity: valuation is +infinity at any order


def test_omega_p_valuation_weights_coefficients():
    g = empty_graph(2)
    # mu(a^2)-1 = 2a + a^2: over p=2 the weight of 2a is 1+1=2, of a^2 is 2
    _, v = valuations(parse_word("a^2", g), g, 6, Z, 2)
    assert v.decided and v.value == 2
    # over p=3, the 2a term has weight 1
    _, v = valuations(parse_word("a^2", g), g, 6, Z, 3)
    assert v.decided and v.value == 1


def test_dimension_subgroup_membership():
    g = empty_graph(2)
    comm = parse_word("a b a^-1 b^-1", g)
    assert _omega(magnus(comm, g, Q, 6).coeffs, 6).membership(2) == "in"
    assert _omega(magnus(comm, g, Q, 6).coeffs, 6).membership(3) == "out"
    assert _omega(magnus(IDENTITY, g, Q, 6).coeffs, 6).membership(5) == "in"
    # truncation order too low to decide for a trivial-looking element
    assert _omega(magnus(IDENTITY, g, Q, 6).coeffs, 6).membership(8) == "undecided"


@pytest.mark.parametrize("n", [0, -5])
def test_membership_below_delta_1_is_rejected(n):
    # dimension subgroups start at delta_1
    with pytest.raises(DomainError, match="start at 1"):
        _omega({(): 1}, 6).membership(n)


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


def test_identity_has_no_leading_monomial():
    with pytest.raises(ValueError, match="^identity has no leading monomial$"):
        leading_monomial_char_p(IDENTITY, cycle_graph(5), 3)


LEADING_MONOMIAL_BAD_P = """
import sys
from raag.graph import cycle_graph
from raag.magnus import leading_monomial_char_p
from raag.series import DomainError
from raag.words import parse_word

g = cycle_graph(5)
for p in (0, 1, 4):
    try:
        leading_monomial_char_p(parse_word("a^8", g), g, p)
    except DomainError:
        continue
    sys.exit(f"p = {p} was accepted")
"""


def test_leading_monomial_rejects_non_prime_p():
    # p = 1 used to loop forever in the p-adic valuation, p = 0 to divide by
    # zero, and p = 4 to return a monomial with no meaning; a child process
    # keeps a hang from stalling the suite
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", LEADING_MONOMIAL_BAD_P],
                          capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr


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


def test_injectivity_witness_rejects_order_zero():
    for dom in (Z, Q, Fp(2)):
        with pytest.raises(DomainError, match="truncation order must be >= 1"):
            injectivity_witness(P3, 2, 0, dom)


@pytest.mark.parametrize("r, order, collisions", [(3, 5, 0), (4, 3, 5)])
def test_injectivity_witness_same_over_z_and_q(r, order, collisions):
    # Z -> Q is injective, so the integer images collide over Z exactly
    # when they collide over Q; at order 3 the radius-4 ball collides on
    # every suite graph but the abelian K3
    found = {name: injectivity_witness(g, r, order, Z)
             for name, g in SUITE.items()}
    assert found == {name: injectivity_witness(g, r, order, Q)
                     for name, g in SUITE.items()}
    assert sum(w is not None for w in found.values()) == collisions


def test_injectivity_witness_builds_no_series(lincomb_inits):
    for dom in (Z, Q, Fp(2), Fp(3)):
        injectivity_witness(R5, 3, 5, dom)
    assert lincomb_inits == []


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
