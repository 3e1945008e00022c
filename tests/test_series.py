from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raag.exterior import ExtElement
from raag.graph import (Graph, complete_graph, empty_graph, enumerate_cliques,
                        path_graph)
from raag.series import (DomainError, Fp, PCSeries, Q, Z, coproduct, exp_series,
                         invert_unit, is_grouplike, is_primitive, log_series,
                         tensor)
from raag.words import canonicalize_trace, enumerate_traces

from conftest import graphs_st, random5_graph
from oracles import KoszulElement, coproduct_by_pairs, differential

P3 = path_graph(3)
R5 = random5_graph()
ORDER = 5


def gen(v, g=P3, dom=Z, order=ORDER):
    return PCSeries.generator(v, g, dom, order)


def random_series(draw_terms, g=R5, dom=Z, order=4):
    return PCSeries.from_terms(draw_terms, g, dom, order)


terms_st = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=3),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=6,
)


def test_commutation_relations():
    a, b, c = (gen(v) for v in "abc")
    assert a * b == b * a          # edge a-b
    assert b * c == c * b          # edge b-c
    assert a * c != c * a          # non-edge
    assert (a * c).coefficient(("a", "c")) == 1
    assert (c * a).coefficient(("c", "a")) == 1


def test_reordered_graphs_do_not_mix():
    # the same trace has the normal form ab under g1 and ba under g2, so
    # series over the two graphs cannot be combined
    g1 = Graph(["a", "b"], [("a", "b")])
    g2 = Graph(["b", "a"], [("a", "b")])
    x = PCSeries.from_terms([("ab", 1)], g1, Z, ORDER)
    y = PCSeries.from_terms([("ab", 1)], g2, Z, ORDER)
    assert x.coeffs == {("a", "b"): 1} and y.coeffs == {("b", "a"): 1}
    with pytest.raises(DomainError):
        x - y
    assert x != y


def test_truncation():
    a = gen("a", dom=Z, order=3)
    assert (a ** 5).sorted_terms() == []
    assert (a ** 2).coefficient(("a", "a")) == 1


@settings(max_examples=40, deadline=None)
@given(terms_st, terms_st, terms_st)
def test_ring_axioms(t1, t2, t3):
    x, y, z = (random_series(t) for t in (t1, t2, t3))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    one = PCSeries.one(R5, Z, 4)
    assert x * one == x and one * x == x
    assert x - x == PCSeries(R5, Z, 4)


def test_invert_unit():
    a = gen("a", dom=Q, order=6)
    one = PCSeries.one(P3, Q, 6)
    u = one + a
    assert u * invert_unit(u) == one
    assert invert_unit(u) * u == one
    with pytest.raises(Exception):
        invert_unit(a)  # augmentation 0 is not a unit


def test_invert_unit_mod_p():
    g = empty_graph(2)
    one = PCSeries.one(g, Fp(5), 5)
    u = one + gen("a", g, Fp(5), 5).scale(2) + gen("b", g, Fp(5), 5)
    assert u * invert_unit(u) == one


def test_exp_log_inverse():
    g = empty_graph(2)
    x = gen("a", g, Q, 6) + gen("b", g, Q, 6).scale(Fraction(1, 2))
    assert log_series(exp_series(x)) == x
    y = PCSeries.one(g, Q, 6) + x
    assert exp_series(log_series(y)) == y


def test_exp_adds_for_commuting_arguments():
    g = complete_graph(2)
    a, b = gen("a", g, Q, 6), gen("b", g, Q, 6)
    assert exp_series(a) * exp_series(b) == exp_series(a + b)


def test_augmentation():
    a, c = gen("a", dom=Q, order=4), gen("c", dom=Q, order=4)
    one = PCSeries.one(P3, Q, 4)
    x = one + a * c
    assert x.constant_term() == 1


def test_coproduct_on_generator_is_primitive():
    for v in P3.vertices:
        assert is_primitive(gen(v, dom=Q, order=4))
    a = gen("a", dom=Q, order=4)
    assert not is_primitive(a * a)


def test_coproduct_multiplicative():
    a, c = gen("a", dom=Q, order=3), gen("c", dom=Q, order=3)
    assert coproduct(a * c) == coproduct(a) * coproduct(c)


def test_grouplike_exp():
    g = empty_graph(2)
    x = exp_series(gen("a", g, Q, 6))
    assert is_grouplike(x)
    assert not is_grouplike(gen("a", g, Q, 6))


def test_log_of_grouplike_is_primitive():
    g = path_graph(3)
    u = exp_series(gen("a", g, Q, 5) + gen("b", g, Q, 5))
    assert is_primitive(log_series(u))


def test_tensor_bilinear():
    a, b = gen("a", dom=Q, order=3), gen("b", dom=Q, order=3)
    assert tensor(a + b, a) == tensor(a, a) + tensor(b, a)


def _check_tensor_square(x, y):
    # coproduct agrees with the pair expansion, and x (x) y has one key per
    # pair of terms: the left trace tagged .1, then the right tagged .2
    assert coproduct(x) == coproduct_by_pairs(x)
    assert coproduct(y) == coproduct_by_pairs(y)
    want = {tuple(v + ".1" for v in t1) + tuple(v + ".2" for v in t2): c1 * c2
            for t1, c1 in x.coeffs.items() for t2, c2 in y.coeffs.items()
            if len(t1) + len(t2) < x.order}
    assert tensor(x, y).coeffs == want


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=4), st.data())
def test_tensor_square_matches_pair_expansion(g, data):
    order = 4
    coeff = st.integers(min_value=-5, max_value=5)
    letters = st.lists(st.sampled_from(g.vertices), max_size=order - 1)
    series = st.lists(st.tuples(letters, coeff), max_size=6).map(
        lambda terms: PCSeries.from_terms(terms, g, Z, order))
    _check_tensor_square(data.draw(series), data.draw(series))


def test_tensor_square_with_dotted_names():
    # names that look like the join's own tags: a.1 and a.2 are vertices
    g = Graph(["a.1", "a", "b", "a.2"], [("a.1", "b"), ("a", "a.2"), ("b", "a")])
    order = 4
    traces = [t for n in range(order) for t in enumerate_traces(g, n)]
    x = PCSeries(g, Z, order, ((t, i % 7 - 3) for i, t in enumerate(traces)))
    y = PCSeries(g, Z, order, ((t, i % 5 - 2) for i, t in enumerate(traces)))
    _check_tensor_square(x, y)


def _reduce(x, dom):
    # x with its coefficients reduced into dom, through the constructor
    return type(x)(x.graph, dom, x.order, x.coeffs.items())


def test_map_domain_reduction():
    x = PCSeries.from_terms([(("a",), 7), ((), 10)], P3, Z, 3)
    y = _reduce(x, Fp(5))
    assert y.coefficient(("a",)) == 2
    assert y.constant_term() == 0


def test_domain_validation():
    from raag.series import Domain
    with pytest.raises(DomainError):
        Domain("Fp", 6)
    with pytest.raises(DomainError):
        Domain("weird")
    with pytest.raises(DomainError, match="^p is only meaningful for Fp$"):
        Domain("Z", 3)


@pytest.mark.parametrize("f, domain, constant, message", [
    (exp_series, Z, 0, "exp needs rational coefficients"),
    (exp_series, Q, 1, "exp needs zero constant term"),
    (log_series, Z, 1, "log needs rational coefficients"),
    (log_series, Q, 2, "log needs constant term 1"),
], ids=["exp-Z", "exp-constant", "log-Z", "log-constant"])
def test_exp_and_log_reject_what_they_do_not_map(f, domain, constant, message):
    x = PCSeries(P3, domain, 3, [((), constant), (("a",), 1)])
    with pytest.raises(DomainError, match=f"^{message}$"):
        f(x)


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=4), st.sampled_from([2, 3, 5]), st.data())
def test_reduction_commutes_with_operations(g, p, data):
    # Z -> F_p and Z -> Q are ring maps, so reducing the coefficients once,
    # in the constructor, must agree with reducing the operands first
    order = 4
    coeff = st.integers(min_value=-12, max_value=12)
    letters = st.lists(st.sampled_from(g.vertices), max_size=order - 1)
    series = st.lists(st.tuples(letters, coeff), max_size=6).map(
        lambda terms: PCSeries.from_terms(terms, g, Z, order))
    x, y = data.draw(series), data.draw(series)
    k = data.draw(coeff)
    cliques = enumerate_cliques(g)
    ext = st.lists(st.tuples(st.sampled_from(cliques), coeff), max_size=4).map(
        lambda terms: ExtElement(g, Z, None, terms))
    a, b = data.draw(ext), data.draw(ext)
    koszul = st.lists(
        st.tuples(st.tuples(st.sampled_from(cliques),
                            letters.map(lambda t: canonicalize_trace(t, g))),
                  coeff),
        max_size=4).map(lambda terms: KoszulElement(g, Z, order, terms))
    z = data.draw(koszul)
    for dom in (Fp(p), Q):
        xd, yd = _reduce(x, dom), _reduce(y, dom)
        assert _reduce(x + y, dom) == xd + yd
        assert _reduce(x - y, dom) == xd - yd
        assert _reduce(x.scale(k), dom) == xd.scale(k)
        assert _reduce(x * y, dom) == xd * yd
        assert _reduce(coproduct(x), dom) == coproduct(xd)
        assert _reduce(a * b, dom) == _reduce(a, dom) * _reduce(b, dom)
        assert _reduce(differential(z), dom) == differential(_reduce(z, dom))


@settings(max_examples=40, deadline=None)
@given(graphs_st(max_vertices=4), st.sampled_from([2, 3, 5]), st.data())
def test_constructor_sums_repeats_and_truncates(g, p, data):
    order = 3
    t = canonicalize_trace(
        data.draw(st.lists(st.sampled_from(g.vertices), max_size=order - 1)), g)
    a = data.draw(st.integers(min_value=-20, max_value=20))
    m = data.draw(st.integers(min_value=-3, max_value=3))
    # repeated keys whose sum is a multiple of p vanish over F_p only
    repeats = [(t, a), (t, m * p - a)]
    assert PCSeries(g, Fp(p), order, repeats).is_zero()
    assert PCSeries(g, Z, order, repeats).coeffs == ({t: m * p} if m else {})
    b = data.draw(st.integers(min_value=-20, max_value=20))
    assert PCSeries(g, Fp(p), order, [(t, a), (t, b)]).coefficient(t) == (a + b) % p
    # keys of degree >= order are dropped, whatever their coefficient
    long = canonicalize_trace(
        data.draw(st.lists(st.sampled_from(g.vertices), min_size=order,
                           max_size=order + 2)), g)
    x = PCSeries(g, Q, order, [(long, 1), (t, Fraction(1, 2))])
    assert x.coeffs == {t: Fraction(1, 2)}



@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Z, Q, Fp(2), Fp(3), Fp(5)]),
       st.one_of(st.integers(-10**30, 10**30), st.booleans(),
                 st.fractions(max_denominator=30), st.floats(),
                 st.just(Decimal("1.5")), st.just("7")))
@example(Fp(3), Fraction(1, 6))  # a denominator divisible by p
@example(Z, Fraction(1, 2))
@example(Z, 2.5)
@example(Fp(3), 2.5)
@example(Z, 2.0)
def test_coerce_is_the_map_from_q(dom, x):
    # an int, bool or Fraction lands as an int in Z, a Fraction in Q and a
    # residue in F_p; one with no image raises, and so does any other value,
    # a float, a Decimal or a str, which is not exact or not a number
    q = Fraction(x) if isinstance(x, (int, Fraction)) else None
    if q is None:
        want = None
    elif dom.kind == "Q":
        want = q
    elif dom.kind == "Z":
        want = q.numerator if q.denominator == 1 else None
    elif q.denominator % dom.p:
        want = q.numerator * pow(q.denominator, -1, dom.p) % dom.p
    else:
        want = None
    if want is None:
        with pytest.raises(DomainError):
            dom.coerce(x)
    else:
        got = dom.coerce(x)
        assert got == want and type(got) is type(want)
