"""Canonical forms for traces and group elements, and their enumeration.

A *trace* is an equivalence class of positive words over the vertex set,
two words being identified when they differ by swaps of adjacent commuting
letters (move M3).  We store the lexicographically least representative
under the graph's vertex order (the lex-normal form).  It is built one
letter at a time by a single insertion kernel, `_slot`: appending a letter
to a lex-normal word keeps it lex-normal once the letter slides left past
the letters it commutes with and then right to its place in vertex order
(Anisimov & Knuth, *Inhomogeneous sorting*, 1979).

A group element is stored as a syllable sequence (generator, nonzero
exponent), reduced so that the syllable count is minimal (moves M1/M2/M3)
and lexicographically least among its M3-equivalents.

Enumeration needs no insertion.  A lex-normal word extends to a
lex-normal word exactly by the letters that `_slot` would leave at its
end, its follow set, and the follow set of the extension is one bitmask
step from the word's own (`_follow`).  So traces are enumerated, and
balls in the word metric streamed, by carrying the follow set of each
word; `_slot` stays the one kernel that inserts a letter.  The elements
of length n are exactly the lex-normal geodesic words of length n, so a
ball is streamed, not searched: each word is extended by its follow set
less the letters that would cancel (Hermiller & Meier, 1995).
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple, Sequence

from raag.errors import UnknownGeneratorError, check_states, max_states
from raag.graph import Graph
from raag.growth import phi_A

Trace = tuple[str, ...]


def _slot(word: Sequence[str], v: str, g: Graph) -> int:
    """Where v goes when appended to the lex-normal `word` (vertex names).

    v commutes past the maximal suffix of letters adjacent to it; within
    that suffix it lands before the first letter that follows it in vertex
    order.  The result is the lex-normal form of word.v: a word is
    lex-normal iff it has no factor b u a with a < b and a commuting with
    every letter of b u, and the insertion creates no such factor.
    """
    near = g._adj[v]
    rank = g._index
    i = len(word)
    while i and word[i - 1] in near:
        i -= 1
    r = rank[v]
    n = len(word)
    while i < n and rank[word[i]] < r:
        i += 1
    return i


def _concat(t1: Trace, letters: Iterable[str], g: Graph) -> Trace:
    """Lex-normal form of t1 followed by `letters`, for a lex-normal t1."""
    word = list(t1)
    for v in letters:
        word.insert(_slot(word, v, g), v)
    return tuple(word)


def canonicalize_trace(letters: Iterable[str], g: Graph) -> Trace:
    """Lexicographically least word reachable by commuting adjacent swaps."""
    word = tuple(letters)
    for v in word:
        g.index(v)  # raises UnknownGeneratorError
    return _concat((), word, g)


class Syllable(namedtuple("Syllable", "generator exponent")):
    __slots__ = ()

    def __new__(cls, generator: str, exponent: int):
        if exponent == 0:
            raise ValueError("syllable exponent must be nonzero")
        return super().__new__(cls, generator, exponent)

    # `_replace` builds through `_make`, which would skip the check above
    _make = classmethod(lambda cls, fields: cls(*fields))


class GroupWord(NamedTuple):
    """Canonical syllable sequence; build through :func:`reduce_word`."""

    syllables: tuple[Syllable, ...]

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = GroupWord(())


def _push(word: list[Syllable], gen: str, exp: int, g: Graph) -> None:
    """Append gen^exp to a reduced word, merging through commuting tails.

    The walk back passes only syllables adjacent to `gen`.  So when the
    merge cancels a syllable s_i, every later syllable commutes with `gen`,
    and the word stays reduced: a merge across the gap would need syllables
    s_k, s_j (k < i < j) of one generator x that only s_i kept apart, so
    `gen` would not be adjacent to x; but s_j lies in the walked tail, so
    it is.
    """
    if exp == 0:
        return
    i = len(word) - 1
    while i >= 0:
        s = word[i]
        if s.generator == gen:
            merged = s.exponent + exp
            if merged == 0:
                del word[i]
            else:
                word[i] = Syllable(gen, merged)
            return
        if not g.adjacent(s.generator, gen):
            break
        i -= 1
    word.append(Syllable(gen, exp))


def _lex_min_syllables(word: list[Syllable], g: Graph) -> tuple[Syllable, ...]:
    # The trace kernel acting on whole syllables: two syllables commute
    # exactly when their generators are adjacent.
    out: list[Syllable] = []
    gens: list[str] = []
    for s in word:
        i = _slot(gens, s.generator, g)
        gens.insert(i, s.generator)
        out.insert(i, s)
    return tuple(out)


def reduce_word(syllables: Iterable[Syllable | tuple[str, int]], g: Graph) -> GroupWord:
    """Canonical form: moves M1/M2/M3 to minimal syllable count, then the
    lexicographically least M3-representative.  Idempotent.

    One pass: each syllable is pushed once onto a word that stays reduced
    (see `_push`), so no cancellation makes the word be read again."""
    word: list[Syllable] = []
    for gen, exp in syllables:
        g.index(gen)
        _push(word, gen, exp, g)
    return GroupWord(_lex_min_syllables(word, g))


def multiply(u: GroupWord, v: GroupWord, g: Graph) -> GroupWord:
    return reduce_word(u.syllables + v.syllables, g)


def invert(u: GroupWord, g: Graph) -> GroupWord:
    return reduce_word(
        [Syllable(s.generator, -s.exponent) for s in reversed(u.syllables)], g
    )


def word_length(u: GroupWord) -> int:
    return sum(abs(s.exponent) for s in u.syllables)


# an exponent is ASCII decimal: `\d` and `int` also read other scripts' digits
_TOKEN = re.compile(r"^([^\s^]+)(?:\^(-?[0-9]+))?$")


def parse_word(text: str, g: Graph) -> GroupWord:
    """Parse whitespace-separated `gen^exp` tokens (exponent defaults to 1)."""
    if text.strip() == "1":
        return IDENTITY
    sylls: list[tuple[str, int]] = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad token {tok!r}")
        gen, exp = m.group(1), int(m.group(2) or 1)
        if gen not in g:
            raise UnknownGeneratorError(f"unknown generator {gen!r}")
        sylls.append((gen, exp))
    return reduce_word(sylls, g)


def format_word(u: GroupWord) -> str:
    if not u.syllables:
        return "1"
    return " ".join(
        s.generator if s.exponent == 1 else f"{s.generator}^{s.exponent}"
        for s in u.syllables
    )


def _follow(g: Graph) -> tuple[list[int], list[int]]:
    """The step of the follow set, per letter i: (keep[i], reset[i]).

    The follow set of a lex-normal word t is the bitmask of the letters x
    with `_slot(t, x) == len(t)`, those that stay at the end of t.x; it is
    every letter for t = ().  Appending i steps it to
    (follow & keep[i]) | reset[i]: a letter not adjacent to i (i itself
    among them) stops at i, and a letter adjacent to i passes it, so it
    stays at the end iff it stayed at the end of t and i precedes it in
    vertex order."""
    nbrs = g._nbrs
    full = (1 << len(nbrs)) - 1
    keep = [m & ~((2 << i) - 1) for i, m in enumerate(nbrs)]
    reset = [full & ~m for m in nbrs]
    return keep, reset


def enumerate_traces(g: Graph, n: int) -> list[Trace]:
    """All canonical traces of length exactly n, sorted by vertex order.

    Prefixes of lex-normal words are lex-normal, so each trace arises once,
    from its prefix, by a letter in the prefix's follow set (`_follow`).
    Each layer is generated in sorted order from the sorted layer before
    it, each trace with its follow set.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cap = max_states()
    keep, reset = _follow(g)
    # per letter v: its bit, the tuple (v,) and the follow step
    moves = [(1 << i, (v,), keep[i], reset[i])
             for i, v in enumerate(g.vertices)]
    layer: list[Trace] = [()]
    follows = [(1 << len(moves)) - 1]  # the follow set of each trace
    for _ in range(n):
        nxt: list[Trace] = []
        steps: list[int] = []
        for t, follow in zip(layer, follows):
            for bit, one, kept, reset_v in moves:
                if follow & bit:
                    nxt.append(t + one)
                    steps.append(follow & kept | reset_v)
            check_states(len(nxt), "enumerate_traces", cap)
        layer, follows = nxt, steps
    return layer


def geodesic_words(g: Graph, r: int) -> Iterator[tuple[tuple[str, int], ...]]:
    """The group elements of word length <= r, each once, as its lex-normal
    geodesic word: a tuple of letters (generator, +-1).  Depth-first; the
    identity comes first and every word follows its prefixes.

    Two geodesic words for one element differ only by commutations, and a
    geodesic u.x^e stays geodesic iff no x^-e in u commutes to the end
    (Hermiller & Meier, *Algorithms and geometry for graph products of
    groups*, J. Algebra 171, 1995).  Prefixes of lex-normal geodesic words
    are lex-normal geodesic words, so each element is reached once, from
    its prefix.  No word is reduced or looked up, and no layer is held.

    Each word u carries three bitmasks: its follow set (`_follow`, the
    letters x that stay at the end of u.x), and `plus` and `minus`, the
    letters x whose last letter before the suffix of letters adjacent to
    x is x^+1, resp. x^-1: that is the only x^-e which could commute to
    the end of u.x^e and cancel.  Appending i^e keeps the bits of the
    letters adjacent to i, since the suffix only grows, and the letter
    before the (empty) suffix of any other letter is i^e itself.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    # the ball holds sum_{n <= r} a_n elements, a_n the coefficients of Phi_A
    check_states(sum(phi_A(g, r + 1)), "ball")
    yield ()
    keep, reset = _follow(g)
    nbrs = g._nbrs
    # per letter x: its bit, its neighbours, the follow step, and the
    # one-letter tuples x^-1 and x^+1
    moves = [(1 << i, nbrs[i], keep[i], reset[i], ((x, -1),), ((x, 1),))
             for i, x in enumerate(g.vertices)]
    # words still to extend, with their follow, plus and minus masks; at
    # most 2|V| wait at each depth
    stack: list[tuple[tuple[tuple[str, int], ...], int, int, int]] = (
        [((), (1 << len(moves)) - 1, 0, 0)] if r else [])
    while stack:
        word, follow, plus, minus = stack.pop()
        deeper = len(word) + 1 < r
        for bit, near, kept, reset_x, down, up in moves:
            if not follow & bit:
                continue
            step = follow & kept | reset_x
            if not plus & bit:  # no x^+1 that x^-1 would cancel
                child = word + down
                yield child
                if deeper:
                    stack.append((child, step, plus & near, minus & near | bit))
            if not minus & bit:  # no x^-1 that x^+1 would cancel
                child = word + up
                yield child
                if deeper:
                    stack.append((child, step, plus & near | bit, minus & near))


def sphere_sizes(g: Graph, r: int) -> list[int]:
    """Number of elements of word length exactly 0..r."""
    counts = [0] * (r + 1)
    for w in geodesic_words(g, r):
        counts[len(w)] += 1
    return counts
