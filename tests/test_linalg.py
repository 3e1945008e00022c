from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag.linalg import rank_of_rows
from raag.series import Fp, Q, Z, DomainError

from oracles import fraction_rank

# sparse rows over at most 8 columns; the column labels are ints, so both
# routines pivot on the same (natural) column order
entries_st = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
rows_st = st.lists(
    st.dictionaries(st.integers(0, 7), entries_st, max_size=6), max_size=10)


@settings(max_examples=200, deadline=None)
@given(rows_st)
def test_rank_over_q_matches_fraction_oracle(rows):
    assert rank_of_rows(rows, Q) == fraction_rank(rows, Q)


@settings(max_examples=200, deadline=None)
@given(rows_st, st.sampled_from([2, 3, 5, 7, 2**31 - 1]))
def test_rank_over_fp_matches_fraction_oracle(rows, p):
    # a fraction is an element of F_p only if p does not divide its denominator
    rows = [{c: x for c, x in r.items() if Fraction(x).denominator % p}
            for r in rows]
    assert rank_of_rows(rows, Fp(p)) == fraction_rank(rows, Fp(p))


def test_rank_with_fraction_entries():
    rows = [{"x": Fraction(1, 2), "y": Fraction(1, 3)},
            {"x": 3, "y": 2},
            {"y": Fraction(-5, 7), "z": 1}]
    assert rank_of_rows(rows, Q) == 2
    # over F_5, 1/2 = 3 and 1/3 = 2: the first two rows are equal
    assert rank_of_rows(rows, Fp(5)) == fraction_rank(rows, Fp(5)) == 2
    assert rank_of_rows(rows[:2], Fp(5)) == 1


def test_rank_needs_a_field():
    with pytest.raises(DomainError):
        rank_of_rows([{0: 1}], Z)


def test_rank_over_fp_rejects_fraction_with_denominator_p():
    # 1/3 is no element of F_3: the domain says so, not `pow`
    with pytest.raises(DomainError, match="F_3"):
        rank_of_rows([{0: Fraction(1, 3)}], Fp(3))
    assert rank_of_rows([{0: Fraction(1, 3)}], Fp(5)) == 1


def test_rank_takes_exact_entries_only():
    # 1/2 is 2 in F_3; a float is refused, not truncated to 0
    assert rank_of_rows([{0: Fraction(1, 2)}], Fp(3)) == 1
    for dom in (Q, Fp(3)):
        with pytest.raises(DomainError, match="^0.5 is not an int or a Fraction$"):
            rank_of_rows([{0: 0.5}], dom)
