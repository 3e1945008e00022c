"""Independent brute-force oracles used only by the test suite, and the
element-level Koszul maps that the contraction oracle is compared with."""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, product
from math import comb

from raag.errors import check_states
from raag.graph import Graph
from raag.growth import phi_A
from raag.koszul import Fronts, _d_key, _s_key
from raag.linalg import rank_of_rows
from raag.series import (Domain, DomainError, Fp, LinComb, PCSeries, Z,
                         _pair_degree)
from raag.verify import COMMUTATOR_DEGREE
from raag.words import (IDENTITY, GroupWord, canonicalize_trace,
                        enumerate_traces, reduce_word, word_length)


def subset_cliques(g: Graph) -> list[tuple[str, ...]]:
    """Every vertex subset that is pairwise adjacent, by raw enumeration."""
    out = []
    for k in range(len(g.vertices) + 1):
        for sub in combinations(g.vertices, k):
            if g.is_clique(sub):
                out.append(sub)
    return out


def m_move_closure(word: tuple[tuple[str, int], ...], g: Graph,
                   limit: int = 200_000) -> set[tuple[tuple[str, int], ...]]:
    """All syllable words reachable by moves M1/M2/M3 (none increases the
    syllable count, so the closure is finite)."""
    seen = {word}
    queue = deque([word])
    while queue:
        w = queue.popleft()
        moves = []
        for i, (gen, exp) in enumerate(w):
            if exp == 0:
                moves.append(w[:i] + w[i + 1:])  # M1
        for i in range(len(w) - 1):
            (g1, e1), (g2, e2) = w[i], w[i + 1]
            if g1 == g2:
                moves.append(w[:i] + ((g1, e1 + e2),) + w[i + 2:])  # M2
            elif g.adjacent(g1, g2):
                moves.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])  # M3
        for m in moves:
            if m not in seen:
                if len(seen) >= limit:
                    raise RuntimeError("move closure too large")
                seen.add(m)
                queue.append(m)
    return seen


def m3_orbit(letters: tuple[str, ...], g: Graph,
             limit: int = 200_000) -> set[tuple[str, ...]]:
    """All positive words reachable by commuting adjacent swaps alone."""
    seen = {letters}
    queue = deque([letters])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if g.adjacent(w[i], w[i + 1]):
                m = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if m not in seen:
                    if len(seen) >= limit:
                        raise RuntimeError("orbit too large")
                    seen.add(m)
                    queue.append(m)
    return seen


def m3_class_count(g: Graph, n: int) -> int:
    """The number of degree-n traces, as the number of commuting-swap
    classes of the |V|^n positive words: each class is named by its least
    word under vertex order."""
    def rank(w):
        return tuple(g.index(v) for v in w)
    return len({min(m3_orbit(w, g), key=rank)
                for w in product(g.vertices, repeat=n)})


def piling_is_identity(word, g: Graph) -> bool:
    """Heaps-of-pieces word problem oracle: push signed letters onto
    per-generator piles with blocking markers on non-commuting piles; the
    word is trivial iff every pile empties."""
    piles = {v: [] for v in g.vertices}
    non_commuting = {
        v: [u for u in g.vertices if u != v and not g.adjacent(u, v)]
        for v in g.vertices
    }
    for gen, exp in word:
        eps = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if piles[gen] and piles[gen][-1] == -eps:
                piles[gen].pop()
                for u in non_commuting[gen]:
                    piles[u].pop()
            else:
                piles[gen].append(eps)
                for u in non_commuting[gen]:
                    piles[u].append(0)
    return all(not p for p in piles.values())


def mobius(n: int) -> int:
    if n == 1:
        return 1
    res, d, count = 1, 2, 0
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return (-1) ** count


def witt_rank(k: int, n: int) -> int:
    """Degree-n rank of the free Lie algebra on k generators."""
    total = sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def _one_minus_power(n: int, e: int, order: int) -> list[int]:
    """(1 - t^n)^e truncated below t^order, for any integer e."""
    out = [0] * order
    for j in range((order - 1) // n + 1):
        out[n * j] = (-1) ** j * comb(e, j) if e >= 0 else comb(j - e - 1, j)
    return out


def _truncated_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for j, y in enumerate(b):
        if y:
            for i in range(len(a) - j):
                out[i + j] += a[i] * y
    return out


def compose_growth(phi_r: list[int]) -> list[int]:
    """Phi_R(2t/(1+t)) to as many terms as phi_r has, by summing the powers
    of the inner series: the composition route to Phi_A."""
    order = len(phi_r)
    inner = [0] + [2 * (-1) ** (n - 1) for n in range(1, order)]  # 2t/(1+t)
    out, power = [0] * order, [1] + [0] * (order - 1)
    for a in phi_r:
        out = [x + a * y for x, y in zip(out, power)]
        power = _truncated_mul(power, inner)
    return out


def ball(g: Graph, r: int) -> list[GroupWord]:
    """All group elements of word length <= r, by breadth-first search with
    canonical-form dedup; sorted by (length, canonical syllables)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    # the ball holds sum_{n <= r} a_n elements, a_n the coefficients of Phi_A
    check_states(sum(phi_A(g, r + 1)), "ball")
    seen: dict[GroupWord, int] = {IDENTITY: 0}
    frontier = [IDENTITY]
    for dist in range(1, r + 1):
        nxt: list[GroupWord] = []
        for u in frontier:
            for v in g.vertices:
                for e in (1, -1):
                    w = reduce_word(list(u.syllables) + [(v, e)], g)
                    if word_length(w) == dist and w not in seen:
                        seen[w] = dist
                        nxt.append(w)
        frontier = nxt
    def key(u: GroupWord):
        return (
            word_length(u),
            tuple((g.index(s.generator), s.exponent) for s in u.syllables),
        )
    return sorted(seen, key=key)


class KoszulElement(LinComb):
    """Element of the Koszul resolution; the keys are (clique, trace) pairs
    and the degree of a key is the total degree."""

    __slots__ = ()
    _degree = staticmethod(_pair_degree)

    @classmethod
    def basis(cls, clique, trace, graph: Graph, domain: Domain,
              order: int) -> "KoszulElement":
        c = graph.sort_vertices(clique)
        if not graph.is_clique(c):
            raise DomainError(f"{clique!r} is not a clique")
        t = canonicalize_trace(trace, graph)
        return cls(graph, domain, order, [((c, t), 1)])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{x}*[{''.join(c) or 'e'}|{''.join(t) or '1'}]"
            for (c, t), x in sorted(self.coeffs.items())
        )


def differential(x: KoszulElement) -> KoszulElement:
    """d on elements: the linear extension of the library kernel `_d_key`."""
    fronts: Fronts = {}
    return x._like((y, a * b) for k, a in x.coeffs.items()
                   for y, b in _d_key(k, x.graph, fronts))


def contraction(x: KoszulElement) -> KoszulElement:
    """s on elements: the linear extension of the library kernel `_s_key`."""
    return x._like((y, a) for k, a in x.coeffs.items()
                   if (y := _s_key(k, x.graph)) is not None)


def epsilon(x: KoszulElement) -> KoszulElement:
    """Projection onto the bidegree-(0, 0) summand."""
    key = ((), ())
    return KoszulElement(x.graph, x.domain, x.order,
                         [(key, x.coeffs[key])] if key in x.coeffs else [])


def bigraded_ranks(g: Graph, order: int) -> dict[tuple[int, int], int]:
    """Rank of each (clique-degree, trace-degree) component of the Koszul
    resolution with total degree < order."""
    counts = [len(enumerate_traces(g, n)) for n in range(order)]
    out: dict[tuple[int, int], int] = {}
    for c in g.cliques():
        if len(c) >= order:
            continue
        for n in range(order - len(c)):
            out[(len(c), n)] = out.get((len(c), n), 0) + counts[n]
    return out


def koszul_contraction(x: KoszulElement) -> KoszulElement:
    """The Koszul contraction element by element: for each (c, t), list the
    letters of t that commuting swaps bring to the front, take the least
    one that precedes every vertex of c and extends c to a clique, move it
    into the clique and canonicalise the rest of the trace from scratch."""
    g = x.graph
    terms = []
    for (c, t), coeff in x.coeffs.items():
        bound = min((g.index(u) for u in c), default=len(g.vertices))
        front = [(v, i) for i, v in enumerate(t)
                 if all(g.adjacent(u, v) for u in t[:i])]
        best = None
        for v, i in front:
            if g.index(v) < bound and g.is_clique(c + (v,)):
                if best is None or g.index(v) < g.index(best[0]):
                    best = (v, i)
        if best is None:
            continue
        v, i = best
        key = (g.sort_vertices(c + (v,)),
               canonicalize_trace(t[:i] + t[i + 1:], g))
        terms.append((key, coeff))
    return KoszulElement(g, x.domain, x.order, terms)


def product_form_ranks(counts: list[int], upto: int,
                       p: int | None = None) -> list[int]:
    """Exponents x_1..x_upto with prod_n F_n^{x_n} = 1/sum_k (-1)^k n_k t^k,
    where n_k = counts[k], F_n = (1 - t^n)^{-1} for p None and
    F_n = (1 - t^{pn})/(1 - t^n) otherwise.  Since F_n = 1 + t^n + ...,
    x_n is the degree-n coefficient once F_1..F_{n-1} are divided out."""
    order = upto + 1
    q = [c if k % 2 == 0 else -c for k, c in enumerate(counts)]
    residual = [1] + [0] * upto
    for m in range(1, order):
        residual[m] = -sum(q[k] * residual[m - k]
                           for k in range(1, min(m + 1, len(q))))
    exps = []
    for n in range(1, order):
        x = residual[n]
        exps.append(x)
        residual = _truncated_mul(residual, _one_minus_power(n, x, order))
        if p is not None:
            residual = _truncated_mul(residual,
                                      _one_minus_power(p * n, -x, order))
    return exps


def min_syllable_count(letters, g: Graph, limit: int = 100_000) -> int:
    """Fewest blocks of equal letters over the commuting-swap orbit."""
    from itertools import groupby

    best = len(letters)
    for rep in m3_orbit(tuple(letters), g, limit=limit):
        best = min(best, sum(1 for _ in groupby(rep)))
    return best


def leading_monomial_bruteforce(w, g: Graph, p: int, order: int):
    """Extract the leading monomial of mu(w) over F_p directly from the
    truncated series: among nonzero terms, take maximal syllable count,
    then minimal degree; assert that term is unique.  Returns
    (trace, coefficient)."""
    from raag.magnus import magnus
    from raag.series import Fp

    x = magnus(w, g, Fp(p), order)
    scored = [
        (-min_syllable_count(t, g), len(t), t, c)
        for t, c in x.sorted_terms()
        if t
    ]
    scored.sort(key=lambda r: (r[0], r[1]))
    assert scored, "series has no nonconstant term"
    neg_k, deg, t, c = scored[0]
    ties = [r for r in scored if (r[0], r[1]) == (neg_k, deg)]
    assert len(ties) == 1, f"leading monomial not unique: {ties}"
    return t, c


def _syllable_image(v: str, e: int, g: Graph, domain: Domain,
                    order: int) -> PCSeries:
    """(1+v)^e, truncated below degree `order`, by series products (and
    `invert_unit` for e < 0) instead of the binomial coefficients."""
    one = PCSeries.one(g, domain, order)
    return (one + PCSeries.generator(v, g, domain, order)) ** e


def commutator_parts_by_products(g: Graph) -> tuple[bool, list[list[dict]]]:
    """`verify._commutator_parts` by general series products: each
    commutator is carried as the pair (mu(c), mu(c^-1)), and the images of
    [x, c] and its inverse are x c x^-1 c^-1 and c x c^-1 x^-1 of them."""
    order = COMMUTATOR_DEGREE + 1
    gens = [(_syllable_image(v, 1, g, Z, order),
             _syllable_image(v, -1, g, Z, order)) for v in g.vertices]
    one = PCSeries.one(g, Z, order)
    layer = gens
    ok = True
    parts: list[list[dict]] = []
    for n in range(1, COMMUTATOR_DEGREE + 1):
        if n > 1:
            layer = [(x * y * xi * yi, y * x * yi * xi)
                     for y, yi in layer for x, xi in gens]
        rows = []
        for image, _ in layer:
            lead = (image - one).coeffs
            ok = ok and min(map(len, lead), default=order) >= n
            part = {t: c for t, c in lead.items() if len(t) == n}
            if part:
                rows.append(part)
        parts.append(rows)
    return ok, parts


def fraction_rank(rows, domain) -> int:
    """Rank of sparse rows by Gauss-Jordan elimination with normalised
    pivots (Fraction arithmetic over Q), pivoting on the least column
    under the natural order of the column labels."""
    pivots = {}
    rank = 0
    for row in rows:
        r = {c: domain.coerce(v) for c, v in row.items()
             if domain.coerce(v) != domain.zero}
        while r:
            col = min(r)
            piv = pivots.get(col)
            if piv is None:
                inv = domain.inv(r[col])
                pivots[col] = {c: domain.coerce(inv * v) for c, v in r.items()}
                rank += 1
                break
            factor = r[col]
            for c, v in piv.items():
                new = domain.coerce(r.get(c, 0) - factor * v)
                if new == domain.zero:
                    r.pop(c, None)
                else:
                    r[c] = new
    return rank


@lru_cache(maxsize=64)
def left_normed_brackets(g: Graph, n: int) -> tuple[dict, ...]:
    """Expansions of [v1,[v2,[...,vn]]] over all |V|^n generator tuples
    (the nonzero ones), each product recanonicalised from scratch."""
    layer = [{(v,): 1} for v in g.vertices]
    for _ in range(n - 1):
        nxt = []
        for e in layer:
            for v in g.vertices:
                out = Counter()
                for t, c in e.items():
                    out[canonicalize_trace((v,) + t, g)] += c
                    out[canonicalize_trace(t + (v,), g)] -= c
                nxt.append({t: c for t, c in out.items() if c})
        layer = nxt
    return tuple(e for e in layer if e)


def left_normed_span_rank(g: Graph, n: int, domain, p: int | None = None) -> int:
    """Rank of the degree-n left-normed brackets, with the p^i-th powers of
    the degree-m ones for m * p^i = n when p is given (over F_p), pivoting
    on columns in their natural order."""
    rows = list(left_normed_brackets(g, n))
    m, i = n, 0
    while p is not None and m % p == 0:
        m, i = m // p, i + 1
        for e in left_normed_brackets(g, m):
            rows.append((PCSeries(g, Fp(p), n + 1, e.items()) ** p**i).coeffs)
    return rank_of_rows(rows, domain)


def reverse_rank_key(g: Graph):
    """K: a lex-normal trace with its letters ranked in reverse order."""
    return lambda t: tuple(-g.index(v) for v in t)


def lyndon_traces_bruteforce(g: Graph, n: int) -> list[tuple[str, ...]]:
    """Traces of length n whose letters are connected in the non-commutation
    graph and with K(t) < K(v) for every proper right factor v: every
    nonempty proper set of positions closed under later non-commuting
    letters, read in order and canonicalised."""
    key = reverse_rank_key(g)
    out = []
    for t in enumerate_traces(g, n):
        letters = set(t)
        reached, todo = set(), [t[0]]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo += [y for y in letters if not g.adjacent(x, y)]
        if reached != letters:
            continue
        for mask in range(1, 2**n - 1):
            if any(mask >> i & 1 and not mask >> j & 1
                   and not g.adjacent(t[i], t[j])
                   for i in range(n) for j in range(i + 1, n)):
                continue  # not a right factor
            v = canonicalize_trace([t[i] for i in range(n) if mask >> i & 1], g)
            if not key(t) < key(v):
                break
        else:
            out.append(t)
    return out


def multigraded_ranks(g: Graph, upto: int) -> dict[tuple[int, ...], int]:
    """The nonzero exponents b_alpha, |alpha| <= upto, of
    prod_alpha (1 - x^alpha)^(-b_alpha) = 1 / sum_C (-1)^|C| x^C, the sum
    over the cliques C of g and alpha in N^V: invert the clique polynomial
    and divide out the factors one total degree at a time."""
    k = len(g.vertices)
    den = {tuple(int(v in c) for v in g.vertices): (-1) ** len(c)
           for c in subset_cliques(g)}
    monos = sorted((a for a in product(range(upto + 1), repeat=k)
                    if sum(a) <= upto), key=sum)

    def mul(a, b):
        out = Counter()
        for x, c in a.items():
            for y, d in b.items():
                z = tuple(i + j for i, j in zip(x, y))
                if sum(z) <= upto:
                    out[z] += c * d
        return {z: c for z, c in out.items() if c}

    residual = {}
    for a in monos:
        r = 1 if not any(a) else 0
        for b, c in den.items():
            if any(b) and all(i <= j for i, j in zip(b, a)):
                r -= c * residual.get(tuple(j - i for i, j in zip(b, a)), 0)
        if r:
            residual[a] = r
    ranks = {}
    for d in range(1, upto + 1):
        layer = {a: residual[a] for a in monos if sum(a) == d and a in residual}
        ranks.update(layer)
        for a, e in layer.items():
            factor = {tuple(j * i for i in a): (-1) ** j * comb(e, j)
                      if e >= 0 else comb(j - e - 1, j)
                      for j in range(upto // d + 1)}
            residual = mul(residual, factor)
    return ranks
