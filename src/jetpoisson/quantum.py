"""Finitely generated quantum semigroups: rewriting, PBW certification,
comultiplication and the quasiclassical link to the bracket tables.

Elements of the free algebra on x_1..x_n over rational polynomials in h and
named parameters are sums of (word, coefficient) pairs, truncated at a stated
h order.  A word is canonical when its generator indices are non-increasing;
a relation set rewrites each ascending adjacent pair x_i x_j (i < j) to
x_j x_i plus a tail whose every term carries at least one power of h.  With
the h truncation this makes reduction terminate: a swap lowers the ascent
count at fixed h degree and every spawned term climbs the finite h ladder;
`nc_reduce` rewrites by h level, then by word, in step with that descent.

`nc_reduce` rewrites packed words.  A word is one int: the edge marker
n + 1, then one fixed-width field per letter, leftmost highest, each field
one guard bit wider than the marker needs.  So int order is (length, word)
order, a splice is shifts and masks, and one guarded subtract-and-mask,
``(w + low - (w >> width)) & guards``, keeps the guard bit of exactly the
fields whose letter exceeds its left neighbour's: the ascents.  No field
borrows from the next, and the marker, above every letter, starts no ascent.

Confluence is certified the Diamond-Lemma way: for each overlap word
x_i x_j x_k (i < j < k) the two one-step reductions must meet at the same
normal form.  With symbolic parameters in the coefficients, a vanishing
residual certifies the property for every parameter value at once, and a
nonzero residual pins the constraint.

The catalog writes out only what the classical limit leaves free.  Each
tail is h {x_i, x_j} of the closed-form bracket table, each monomial read
as its non-increasing word, since [x_i, x_j] = h {x_i, x_j} + O(h^2)
(Drinfeld, "Quantum groups", ICM 1986), plus the terms of h^2 and above.
R2 and R1_pbw are the sections of R2_ansatz and R1 on which the overlaps
resolve.
"""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from . import report as rep
from .coeffpoly import (
    Combination,
    Frozen,
    LaurentPoly,
    Variable,
    VarKind,
    _HALF, _finish_all, _h_cap, _mac_at, _poly_finish, _poly_mac, _unpack,
    compositions,
    homogeneous_graded_degree,
    param,
    poly,
)
from .jetgroup import ShapeMismatch
from .poissonlie import PoissonStructure, omega_power_closed_form, weight

H = param("h")
_H_CODES = frozenset({H.code})
_TAG = Variable(VarKind.TAG, 0)  # tags the elements of one batched reduction


class UnknownParameters(ValueError):
    pass


def h_truncate_poly(p: LaurentPoly, order: int) -> LaurentPoly:
    return p.drop_high_degree(_H_CODES, order)


def _word_order(word: tuple) -> tuple:
    """The order in which words are rewritten and reported: shortest first."""
    return (len(word), word)


def word_is_canonical(word: tuple) -> bool:
    return all(word[p] >= word[p + 1] for p in range(len(word) - 1))


class NCElement(Frozen):
    def __init__(self, n_gens: int, h_order: int, terms: Combination):
        # terms: word tuple -> LaurentPoly in h and parameters
        self.__dict__.update(n_gens=n_gens, h_order=h_order, terms=terms)

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=_word_order):
            c = self.terms[word]
            mono = " ".join(_word_factors(word)) or "1"
            parts.append(f"({c.render()}) {mono}")
        return " + ".join(parts)


def _word_factors(word: tuple) -> list[str]:
    factors = []
    for g, run in itertools.groupby(word):
        k = len(list(run))
        factors.append(f"x{g}" if k == 1 else f"x{g}^{k}")
    return factors


def nc_make(n_gens: int, h_order: int, terms: Mapping) -> NCElement:
    clean = Combination()
    for word, c in terms.items():
        word = tuple(word)
        if any(not 1 <= g <= n_gens for g in word):
            raise ShapeMismatch(f"generator out of range in {word}")
        clean.add(word, h_truncate_poly(poly(c), h_order))
    return NCElement(n_gens, h_order, clean)


def nc_word(n_gens: int, h_order: int, word) -> NCElement:
    return nc_make(n_gens, h_order, {tuple(word): LaurentPoly.one()})


def nc_sub(a: NCElement, b: NCElement) -> NCElement:
    if a.n_gens != b.n_gens or a.h_order != b.h_order:
        raise ShapeMismatch("mismatched generator count or h order")
    return NCElement(a.n_gens, a.h_order, a.terms.copy().add_all(b.terms, -1))


# ---------------------------------------------------------------------------
# Relation sets and reduction


class RelationSet(Frozen):
    # tails: (i, j) with i < j -> NCElement, the relation x_i x_j = x_j x_i + tail
    def __init__(self, label: str, d: int, n_gens: int, h_order: int, tails: dict):
        self.__dict__.update(label=label, d=d, n_gens=n_gens, h_order=h_order, tails=tails)

    def tail(self, i: int, j: int) -> NCElement:
        return self.tails[(i, j)]

    @cached_property
    def packing(self) -> tuple:
        """nc_reduce's field width, guard masks and rule table, filled as it
        runs and shared by every reduction in this set."""
        guards = _GuardMasks()
        guards.width = (self.n_gens + 1).bit_length() + 1
        return guards.width, guards, {}


class _GuardMasks(dict):
    """Bit length of a packed word -> (low, guards): the bits below the
    guard bit of each of its letter fields, and those guard bits."""

    def __missing__(self, nbits: int) -> tuple:
        width = self.width
        ones = ((1 << nbits + 1 - width) - 1) // ((1 << width) - 1)
        masks = self[nbits] = (ones * ((1 << width - 1) - 1), ones << width - 1)
        return masks


def _packed(word: tuple, width: int, lead: int = 0) -> int:
    for g in word:
        lead = lead << width | g
    return lead


def _unpacked(packed: int, width: int) -> tuple:
    letter = (1 << width - 1) - 1
    word = []
    while packed > letter:  # down to the edge marker
        word.append(packed & letter)
        packed >>= width
    return tuple(reversed(word))


def make_relation_set(label: str, d: int, n_gens: int, h_order: int,
                      tails: Mapping) -> RelationSet:
    full = {}
    for i in range(1, n_gens + 1):
        for j in range(i + 1, n_gens + 1):
            t = tails.get((i, j))
            t = nc_make(n_gens, h_order, {} if t is None else t.terms)
            for word, c in t.terms.items():
                if not word_is_canonical(word):
                    raise ValueError(f"tail of ({i},{j}) has non-canonical word {word}")
                if c.coefficient(H, 0):
                    raise ValueError(f"tail of ({i},{j}) has an h-free term")
            full[(i, j)] = t
    return RelationSet(label, d, n_gens, h_order, full)


def nc_reduce(a: NCElement, R: RelationSet, rng: Optional[random.Random] = None) -> NCElement:
    """Normal form, its words in (length, word) order: rewrite ascending
    adjacent pairs until every word is canonical.

    One table holds each word met and not yet rewritten, word -> [raw
    coefficient, level]; when the rewriting ends it holds only canonical
    words.  A level is a lower bound on the h degree of the coefficient: an
    input term's lowest h degree, at most h_order, or its parent's level plus
    the lowest h degree of the rule coefficient (0 for the swap, at least 1
    for a tail), the smaller of two on a merge.  A word with an ascent is
    queued on its level's heap, and again when a merge lowers its level.  A
    step rewrites the lowest level's smallest word in packed-int order (see
    the module docstring) and takes it out of the table, from one heap per
    level with lazy deletion: an entry whose word has since cancelled, been
    rewritten or been queued lower is skipped.  A swap child is a larger word
    on the same level and a tail child sits higher, so the rewritten (level,
    word) never decreases; on a graded set no word of a homogeneous input is
    rewritten twice.  A child above level h_order is dropped unformed.  The
    site is the leftmost ascent unless an rng is supplied, in which case
    ``rng.choice`` picks one of the ascents, once per step; confluent sets
    agree either way.

    Coefficients stay raw `_poly_mac` accumulators, each product and merge
    h-truncated by the cap, until the end."""
    if a.h_order != R.h_order or a.n_gens != R.n_gens:
        raise ShapeMismatch("element and relation set disagree on shape")
    order = a.h_order
    width, guards, rules = R.packing
    top = R.n_gens + 1  # the edge marker, above every letter
    letter, pair_mask = (1 << width - 1) - 1, (1 << 2 * width) - 1
    cap, one = _h_cap(order), LaurentPoly.one()
    table: dict = {}  # word -> [raw coefficient, level]
    heaps = [[] for _ in range(order + 1)]  # level -> heap of its words with an ascent
    for word, c in a.terms.items():
        w = _packed(word, width, top)
        low, g = guards[w.bit_length()]
        table[w] = [LaurentPoly(dict(c.terms), c.den), min(c.degree(H, min), order)]
        if (w + low - (w >> width)) & g:
            heapq.heappush(heaps[table[w][1]], w)
    for level, heap in enumerate(heaps):
        while heap:
            word = heapq.heappop(heap)
            if table.get(word, (0, -1))[1] != level:
                continue  # cancelled, rewritten or queued lower since
            coeff = table.pop(word)[0]
            low, g = guards[word.bit_length()]
            ascents = (word + low - (word >> width)) & g
            sites = []  # the shift of each ascent's right letter, leftmost first
            while ascents:
                shift = ascents.bit_length() - width
                sites.append(shift)
                ascents &= (1 << shift) - 1
            shift = sites[0] if rng is None else rng.choice(sites)
            pair = word >> shift & pair_mask
            i, j = pair >> width, pair & letter
            tail = R.tail(i, j)  # once per step: perfbench counts rewrite steps here
            rule = rules.get(pair)
            if rule is None:
                # (middle word, its bits, raw coefficient, lowest h degree):
                # the swap, passing the popped coefficient on itself unless a
                # tail word is the swapped pair, then the tails
                swap = one if (j, i) in tail.terms else None
                rule = rules[pair] = [(j << width | i, 2 * width, swap, 0)] + [
                    (_packed(w2, width), len(w2) * width, c2, c2.degree(H, min))
                    for w2, c2 in tail.terms.items()]
            head, rest = word >> shift + 2 * width, word & (1 << shift) - 1
            for mid, bits, c2, l2 in rule:
                lev = level + l2
                if lev > order:
                    continue  # the cap would drop every term of the product
                new = (head << bits | mid) << shift | rest
                low, g = guards[new.bit_length()]
                ascent = (new + low - (new >> width)) & g
                entry = table.get(new)
                if entry is None:
                    c = coeff if c2 is None else _poly_mac(None, coeff, c2, cap)
                    if c.terms:
                        table[new] = [c, lev]
                        if ascent:
                            heapq.heappush(heaps[lev], new)
                elif not _poly_mac(entry[0], coeff, one if c2 is None else c2, cap).terms:
                    del table[new]
                elif ascent and lev < entry[1]:
                    entry[1] = lev
                    heapq.heappush(heaps[lev], new)
    out = Combination()
    for w in sorted(table):
        out[_unpacked(w, width)] = _poly_finish(table[w][0])
    return NCElement(a.n_gens, a.h_order, out)


def commutator_normal_form(R: RelationSet, i: int, j: int) -> NCElement:
    """nc_reduce(x_i x_j - x_j x_i): equals the tail for i < j."""
    lhs = nc_word(R.n_gens, R.h_order, (i, j))
    rhs = nc_word(R.n_gens, R.h_order, (j, i))
    return nc_reduce(nc_sub(lhs, rhs), R)


def pbw_overlap_check(R: RelationSet, triples=None) -> rep.VerificationReport:
    """Resolve every overlap word x_i x_j x_k (i<j<k) two ways and compare.

    The two one-step reductions are subtracted first and the difference is
    reduced in one call.  Leftmost reduction rewrites each word by the same
    linear step wherever it occurs, and the h cap is a linear projection, so
    the normal form of a sum is the sum of the normal forms (Bergman, "The
    diamond lemma for ring theory", Adv. Math. 1978), also for a set that is
    not confluent."""
    if triples is None:
        triples = list(itertools.combinations(range(1, R.n_gens + 1), 3))
    params = {"set": R.label, "h_order": R.h_order, "triples": len(triples)}

    def cases():
        for (i, j, k) in triples:
            left, right = _one_step(R, (i, j, k), 0), _one_step(R, (i, j, k), 1)
            diff = nc_reduce(nc_sub(left, right), R)
            word = min(diff.terms, key=_word_order, default=None)
            yield (i, j, k), "" if word is None else (
                f"normal forms differ; e.g. ({diff.terms[word].render()}) {' '.join(_word_factors(word))}")

    return rep.first_failure("pbw-overlap", cases(), params)


def _one_step(R: RelationSet, word: tuple, p: int) -> NCElement:
    i, j = word[p], word[p + 1]
    swapped = word[:p] + (j, i) + word[p + 2:]
    out = Combination({swapped: 1})
    for w2, c2 in R.tail(i, j).terms.items():
        out.add(word[:p] + w2 + word[p + 2:], c2)
    return nc_make(R.n_gens, R.h_order, out)


# ---------------------------------------------------------------------------
# Comultiplication, counit, gradings, quasiclassical limit


def delta_generator(i: int) -> Combination:
    """Delta(x_i) = sum_k x_k (x) sum over compositions of i into k parts,
    as a tensor table {(left word, right word): coefficient}."""
    return Combination(
        (((k,), comp), 1) for k in range(1, i + 1) for comp in compositions(i, k)
    )


def tensor_multiply(a: Combination, b: Combination, R: RelationSet) -> Combination:
    """The product of two tensor tables, each slot's words concatenated, with
    every term of degree in h above R's order dropped: one raw sum, a key's
    accumulator deleted at once when it cancels, each normalised once."""
    cap = _h_cap(R.h_order)
    raw: dict = {}
    for (la, ra), ca in a.items():
        for (lb, rb), cb in b.items():
            _mac_at(raw, (la + lb, ra + rb), ca, cb, cap)
    return _finish_all(raw)


def tensor_reduce(a: Combination, R: RelationSet,
                  normal_forms: Optional[dict] = None) -> Combination:
    """Componentwise normal form in both tensor slots.

    Each word is reduced once: its normal form, as a list of (word, coefficient)
    pairs, is kept in ``normal_forms``, a word -> normal form table of this
    relation set.  Without one the call keeps its own, so no result depends
    on an earlier call; a caller that reduces many elements of one set
    passes one table to all of them.  The words new to the table are
    reduced in batches of at most _HALF, the bound of a key's exponents, one
    call per batch: the batch w_0, w_1, ... as sum_k tag^k w_k.  Reduction is
    linear (see `pbw_overlap_check`), so the part at tag^k is the normal form
    of w_k.

    The whole result is one raw sum: for each term (lw, rw) (x) c and each
    left normal-form term u, c * u is formed once and multiplied into the
    accumulator of each (left word, right word) under the h cap, a key whose
    sum cancels is deleted at once, and every coefficient is normalised once
    at the end.  Truncation in h is linear, so capping each pair product
    gives the truncated sum."""
    if normal_forms is None:
        normal_forms = {}
    new = [w for w in dict.fromkeys(w for key in a for w in key) if w not in normal_forms]
    normal_forms.update((w, []) for w in new)
    for at in range(0, len(new), _HALF):
        batch = new[at:at + _HALF]
        tagged = Combination((w, LaurentPoly.var(_TAG, k)) for k, w in enumerate(batch))
        for word, c in nc_reduce(NCElement(R.n_gens, R.h_order, tagged), R).terms.items():
            for k, part in c.coefficients(_TAG).items():
                normal_forms[batch[k]].append((word, part))
    cap = _h_cap(R.h_order)
    raw: dict = {}
    for (lw, rw), c in a.items():
        right = normal_forms[rw]
        for wl, u in normal_forms[lw]:
            cu = _poly_mac(None, c, u)
            for wr, v in right:
                _mac_at(raw, (wl, wr), cu, v, cap)
    return _finish_all(raw)


def delta_of_element(a: NCElement, R: RelationSet) -> Combination:
    """Apply the comultiplication to every word (h and parameters are scalars).

    Delta of a word is Delta of its prefix without the last letter times
    Delta of that letter, and Delta of the empty word is 1 (x) 1; each
    prefix's Delta is built once, in this call's table (`_delta_of_word`).
    No two words share a key of their Deltas (the left word of a key splits
    its right word into the compositions of the letters), so each key's
    coefficient is one product, normalised once."""
    deltas: dict = {}
    total = Combination()
    for word, c in a.terms.items():
        total.add_all(_delta_of_word(word, deltas, R), c)
    return total


def _delta_of_word(word: tuple, deltas: dict, R: RelationSet) -> Combination:
    """Delta(word) = Delta(prefix) Delta(last letter), each kept in ``deltas``.

    A module function, not a closure over the table: a closure that calls
    itself is a reference cycle, which would keep the table alive after the
    call until the cyclic garbage collector ran."""
    d = deltas.get(word)
    if d is None:
        d = deltas[word] = (tensor_multiply(_delta_of_word(word[:-1], deltas, R),
                                            delta_generator(word[-1]), R)
                            if word else Combination({((), ()): LaurentPoly.one()}))
    return d


def verify_delta_homomorphism(R: RelationSet) -> rep.VerificationReport:
    """Delta respects every relation: Delta(xi)Delta(xj) - Delta(xj)Delta(xi)
    - Delta(tail) reduces to zero componentwise."""
    def cases():
        normal_forms: dict = {}  # shared by the relations: each word is reduced once
        for (i, j) in sorted(R.tails):
            di, dj = delta_generator(i), delta_generator(j)
            diff = tensor_multiply(di, dj, R).add_all(tensor_multiply(dj, di, R), -1)
            diff.add_all(delta_of_element(R.tail(i, j), R), -1)
            residual = tensor_reduce(diff, R, normal_forms)
            key = min(residual, key=lambda k: (len(k[0]) + len(k[1]), k), default=None)
            yield (i, j), "" if key is None else _tensor_text(residual[key], key)

    return rep.first_failure("delta-homomorphism", cases(), {"set": R.label, "h_order": R.h_order})


def _tensor_text(c: LaurentPoly, words: tuple) -> str:
    """``(c) x1 (x) x2^2``: a coefficient and the tensor factors of its key."""
    return f"({c.render()}) " + " (x) ".join(" ".join(_word_factors(w)) or "1" for w in words)


def counit(a: NCElement) -> LaurentPoly:
    """c(x_i) = 1 iff i == 1; extended multiplicatively, h and parameters fixed."""
    total = LaurentPoly.zero()
    for word, c in a.terms.items():
        if all(g == 1 for g in word):
            total = total + c
    return total


def verify_counit_coassoc(R: RelationSet) -> rep.VerificationReport:
    def cases():
        # counit annihilates every relation
        for (i, j) in sorted(R.tails):
            yield (i, j), counit(R.tail(i, j))
        deltas: dict = {}  # shared by the generators: each prefix's Delta is built once
        for i in range(1, R.n_gens + 1):
            # (c (x) id) Delta, (id (x) c) Delta, and both sides of coassociativity
            left, right, lhs, rhs = Combination(), Combination(), Combination(), Combination()
            for (lw, rw), c in delta_generator(i).items():
                if all(g == 1 for g in lw):
                    left.add((rw,), c)
                if all(g == 1 for g in rw):
                    right.add((lw,), c)
                for (a2, b2), c2 in _delta_of_word(lw, deltas, R).items():
                    lhs.add((a2, b2, rw), c * c2)
                for (a2, b2), c2 in _delta_of_word(rw, deltas, R).items():
                    rhs.add((lw, a2, b2), c * c2)
            gen = Combination({((i,),): LaurentPoly.one()})
            for a, b in ((left, gen), (right, gen), (lhs, rhs)):
                # a - b at the first key, in sorted order, where they differ
                key = None if a == b else min(k for k in set(a) | set(b) if a[k] != b[k])
                yield (i,), "" if key is None else _tensor_text(a[key] - b[key], key)

    return rep.first_failure("counit-coassoc", cases(), {"set": R.label})


def verify_grading(R: RelationSet) -> rep.VerificationReport:
    """Every monomial of every relation is homogeneous of degree i+j-2 when
    x_i weighs i-1 and h weighs d."""
    def cases():
        for (i, j), tail in sorted(R.tails.items()):
            for word, c in tail.terms.items():
                deg = homogeneous_graded_degree(c, R.d, word_weight=sum(g - 1 for g in word))
                yield (i, j), "" if deg == i + j - 2 else (
                    f"term ({c.render()}) {' '.join(_word_factors(word)) or '1'} "
                    f"has degree {deg}, want {i + j - 2}")

    return rep.first_failure("grading", cases(), {"set": R.label, "d": R.d})


def word_to_commutative(word: tuple) -> LaurentPoly:
    out = LaurentPoly.one()
    for g in word:
        out = out * LaurentPoly.var(Variable(VarKind.GROUP_X, g))
    return out


def verify_quasiclassical(R: RelationSet, omega: PoissonStructure) -> rep.VerificationReport:
    """[x_i, x_j] = h {x_i, x_j} + O(h^2): the h-linear part of each reduced
    commutator must equal the bracket table entry, read commutatively.

    The catalog reads its h-linear parts off `omega_power_closed_form`;
    given the table `build_omega` contracts from the generating function's
    coefficients, as the suite does, this compares two independent
    constructions."""
    def cases():
        for (i, j) in sorted(R.tails):
            tail = commutator_normal_form(R, i, j)
            cms = [(c, word_to_commutative(word)) for word, c in tail.terms.items()]
            order0 = LaurentPoly.sum_of_products((c.coefficient(H, 0), cm) for c, cm in cms)
            yield (i, j), "" if order0.is_zero() else f"h-free part {order0.render()}"
            order1 = LaurentPoly.sum_of_products((c.coefficient(H, 1), cm) for c, cm in cms)
            yield (i, j), order1 - omega.bracket(i, j)

    return rep.first_failure("quasiclassical", cases(), {"set": R.label, "n": omega.n})


# ---------------------------------------------------------------------------
# The shipped relation sets


def _quantised(d: int, n_gens: int, h_order: int, higher: Mapping) -> dict:
    """Each tail as h {x_i, x_j} of the u v (u^d - v^d) bracket table, each
    monomial read as its non-increasing word, plus the terms of h^2 and above
    that higher lists for (i, j) as (h exponent, coefficient, word as
    ((gen, power), ...)).  make_relation_set truncates them at h_order.

    h is packed before the bracket's coordinates: a variable's first use
    fixes its exponent field, and the rewriting sums keys of h and the
    parameters, which stay short ints in the low fields."""
    (h_key,) = LaurentPoly.var(H).terms  # the key of the monomial h
    omega = omega_power_closed_form(d, n_gens)
    letter = {Variable(VarKind.GROUP_X, g).code: g for g in range(1, n_gens + 1)}
    tails = {}
    for i, j in itertools.combinations(range(1, n_gens + 1), 2):
        table = Combination()
        bracket = omega.bracket(i, j)
        for key, c in bracket.terms.items():
            word = tuple(letter[code] for code, e in reversed(_unpack(key)) for _ in range(e))
            table.add(word, _poly_finish(LaurentPoly({h_key: c}, bracket.den)))
        for hexp, c, factors in higher.get((i, j), ()):
            word = tuple(g for g, k in factors for _ in range(k))
            table.add(word, poly(c) * LaurentPoly.var(H, hexp))
        tails[(i, j)] = NCElement(n_gens, h_order, table)
    return tails


def _linear_higher(C3, C4, C5) -> dict:
    """The terms of h^2 and above of the linear-family set."""
    return {
        (1, 3): [(2, 2, ((1, 4),)), (2, -3, ((1, 3),)), (2, 1, ((1, 2),))],
        (2, 3): [(2, 3, ((2, 1), (1, 2))), (2, -3, ((2, 1), (1, 1))),
                 (3, 2 - C3 * 2, ((1, 5),)), (3, -(2 - C3 * 2), ((1, 2),))],
        (1, 4): [(2, 3, ((2, 1), (1, 1))), (2, -8, ((2, 1), (1, 2))),
                 (2, 5, ((2, 1), (1, 3))),
                 (3, 5, ((1, 5),)), (3, -12, ((1, 4),)), (3, 7, ((1, 3),)),
                 (3, C3, ((1, 5),)), (3, -C3, ((1, 2),))],
        (2, 4): [(2, 3, ((2, 2), (1, 2))), (2, -10, ((2, 2), (1, 1))),
                 (2, 12, ((2, 2),)),
                 (2, 12, ((3, 1), (1, 2))), (2, -2, ((3, 1), (1, 3))),
                 (2, -15, ((3, 1), (1, 1))),
                 (3, C3 * 2 + 9, ((2, 1), (1, 1))), (3, -17, ((2, 1), (1, 2))),
                 (3, 6, ((2, 1), (1, 3))), (3, 5 - C3 * 5, ((2, 1), (1, 4))),
                 (4, 22 - C3 * 22, ((1, 2),)), (4, C3 * 4 - 4, ((1, 3),)),
                 (4, C3 * 18 - 18, ((1, 5),)),
                 (4, C4, ((1, 6),)), (4, -C4, ((1, 2),))],
        (3, 4): [(2, -1, ((3, 1), (2, 1), (1, 2))), (2, 16, ((3, 1), (2, 1), (1, 1))),
                 (2, -24, ((3, 1), (2, 1))),
                 (2, -7, ((4, 1), (1, 2))), (2, 16, ((4, 1), (1, 1))),
                 (3, 10 - C3 * 10, ((2, 2), (1, 3))), (3, C3 * 8 - 9, ((2, 2),)),
                 (3, C3 * 5 - 5, ((3, 1), (1, 4))), (3, 16, ((3, 1), (1, 2))),
                 (3, -(C3 * 9 + 6), ((3, 1), (1, 1))),
                 (4, 8 - C3 * 9 - C4 * 2, ((2, 1), (1, 1))),
                 (4, 9 - C3 * 8, ((2, 1), (1, 2))),
                 (4, 10 - C3 * 10, ((2, 1), (1, 4))),
                 (4, C4 * 2 - 18 + C3 * 18, ((2, 1), (1, 5))),
                 (5, C4 + C3 * 2 - 2, ((1, 2),)), (5, 4 - C3 * 4 - C4, ((1, 6),)),
                 (5, C3 * 2 - 2, ((1, 5),)),
                 (5, C5, ((1, 7),)), (5, -C5, ((1, 2),))],
    }


def _quadratic_higher(C1, C2, C3) -> dict:
    """The terms of h^2 and above of the quadratic-family ansatz."""
    return {
        (2, 4): [(2, C1, ((1, 6),)), (2, -C1, ((1, 2),))],
        (3, 4): [(2, 2 - C1 * 2, ((2, 1), (1, 1))), (2, C1 * 2, ((2, 1), (1, 5)))],
        (1, 5): [(2, 6, ((1, 2),)), (2, -6, ((1, 4),)),
                 (2, C2, ((1, 6),)), (2, -C2, ((1, 2),))],
        (2, 5): [(2, 15 - C2 * 2, ((2, 1), (1, 1))), (2, -9, ((2, 1), (1, 3))),
                 (2, C2, ((2, 1), (1, 5)))],
        (3, 5): [(2, 6 - C2 * 3, ((3, 1), (1, 1))), (2, 6, ((3, 1), (1, 3))),
                 (2, C2 - 3, ((3, 1), (1, 5))),
                 (3, C3, ((1, 8),)), (3, -C3, ((1, 2),))],
        (4, 5): [(2, -(C2 * 4 + 6), ((4, 1), (1, 1))), (2, 9, ((4, 1), (1, 3))),
                 (2, C2 - 3, ((4, 1), (1, 5))), (2, 6, ((3, 1), (2, 1))),
                 (3, 3 - C2 * 2 - C3 * 2, ((2, 1), (1, 1))), (3, C3 * 3, ((2, 1), (1, 7)))],
    }


# label -> (d, generators, default h order, parameter names)
_CATALOG = {
    "R1": (1, 4, 10, ("C3", "C4", "C5")),
    "R1_pbw": (1, 4, 10, ("C3", "C4")),
    "R2": (2, 5, 8, ("C",)),
    "R2_ansatz": (2, 5, 8, ("C1", "C2", "C3")),
    "R3": (3, 5, 4, ()),
}


def catalog_params(which: str, params: Optional[Mapping] = None) -> dict:
    """Each parameter set ``which`` reads, "symbolic" if not given (C is C3 on
    R2_ansatz); raises UnknownParameters for one given twice or not read."""
    if which not in _CATALOG:
        raise ValueError(f"unknown relation set {which}")
    params = dict(params or {})
    if which == "R2_ansatz" and "C" in params:
        if "C3" in params:
            raise UnknownParameters("parameter C3 given twice, as C3 and as C")
        params["C3"] = params.pop("C")
    names = _CATALOG[which][3]
    unused = sorted(set(params) - set(names))
    if unused:
        raise UnknownParameters(f"unused parameters: {unused}")
    return {name: params.get(name, "symbolic") for name in names}


def relation_set_catalog(which: str, params: Optional[Mapping] = None,
                         h_order: Optional[int] = None) -> RelationSet:
    """The three shipped quantum semigroup relation sets, the linear set's
    confluent section and the three-constant ansatz of the quadratic set.

    Every tail is h {x_i, x_j} of the set's bracket table plus its terms of
    h^2 and above.  R2 is the ansatz at C1 = 0, C2 = 9/2 with C3 named C, and
    R1_pbw is R1 at C5 = 2 C3^2 + 36 C3 + 4 C4 - 38: the values at which the
    overlaps resolve (see the overlap reports of the unconstrained sets).

    params values are rationals or the string "symbolic"; defaults are
    symbolic, and R2_ansatz reads C as C3.  Default h orders: quadratic set
    8, linear set 10, cubic set 4 (strictly above the deepest h power
    reachable in any length-3 overlap reduction; the tests re-run at
    h_order+2 and compare).
    """
    p = {name: weight(name if value == "symbolic" else value)
         for name, value in catalog_params(which, params).items()}
    d, n_gens, default, _ = _CATALOG[which]
    if which == "R1":
        higher = _linear_higher(**p)
    elif which == "R1_pbw":
        C3, C4 = p["C3"], p["C4"]
        higher = _linear_higher(C3, C4, C3 * C3 * 2 + C3 * 36 + C4 * 4 - 38)
    elif which == "R2":
        higher = _quadratic_higher(0, Fraction(9, 2), p["C"])
    elif which == "R2_ansatz":
        higher = _quadratic_higher(**p)
    else:
        higher = {(4, 5): [(2, 3, ((2, 1), (1, 1)))]}
    K = default if h_order is None else h_order
    return make_relation_set(which, d, n_gens, K, _quantised(d, n_gens, K, higher))
