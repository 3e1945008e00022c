"""The domain, word and result types are immutable `NamedTuple` records:
a field cannot be assigned, equal records are equal and hash alike, the
`repr` names every field, and a modified copy is `x._replace(...)`, which
validates like the constructor."""

import pytest

from raag.graph import path_graph
from raag.growth import IdentityReport
from raag.koszul import ResolutionReport
from raag.magnus import LeadingMonomial, Valuation
from raag.series import DomainError, Fp
from raag.verify import CheckResult
from raag.words import GroupWord, Syllable, reduce_word

RECORDS = [
    (lambda: Fp(3), "Domain(kind='Fp', p=3)"),
    (lambda: Syllable("a", -2), "Syllable(generator='a', exponent=-2)"),
    (lambda: GroupWord(()), "GroupWord(syllables=())"),
    (lambda: ResolutionReport(False, 7, (("a",), ("b", "c")), "d.d != 0"),
     "ResolutionReport(ok=False, checked=7, "
     "counterexample=(('a',), ('b', 'c')), reason='d.d != 0')"),
    (lambda: Valuation(3, False), "Valuation(value=3, decided=False)"),
    (lambda: LeadingMonomial(("a", "b"), (1, 3), 2),
     "LeadingMonomial(trace=('a', 'b'), exponents=(1, 3), coefficient=2)"),
    (lambda: CheckResult("koszul", True, "checked 10"),
     "CheckResult(name='koszul', ok=True, detail='checked 10')"),
    (lambda: IdentityReport("1 - 1/Phi_A", True),
     "IdentityReport(name='1 - 1/Phi_A', holds=True)"),
]


@pytest.mark.parametrize("make, text", RECORDS,
                         ids=[text.partition("(")[0] for _, text in RECORDS])
def test_record_is_an_immutable_value(make, text):
    x, y = make(), make()
    assert x == y and hash(x) == hash(y)
    assert repr(x) == text
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError):
        x.extra = 1


def test_group_word_len_str_and_input_forms():
    g = path_graph(3)  # a - b - c
    pairs = [("c", 1), ("a", 2), ("b", -1), ("a", -1)]
    w = reduce_word(pairs, g)
    assert w == reduce_word([Syllable(*s) for s in pairs], g)
    assert (len(w), str(w)) == (3, "b^-1 c a")
    assert (len(GroupWord(())), str(GroupWord(()))) == (0, "1")


def test_replace_validates_like_the_constructor():
    with pytest.raises(DomainError,
                       match=r"^F_p needs a prime p < 2\^31, got 4$"):
        Fp(3)._replace(p=4)
    with pytest.raises(ValueError, match="^syllable exponent must be nonzero$"):
        Syllable("a", 1)._replace(exponent=0)
    assert Fp(3)._replace(p=5) == Fp(5)
    assert Syllable("a", 1)._replace(exponent=-1) == Syllable("a", -1)
