"""Quantum semigroups: rewriting, confluence certificates, comultiplication,
counit, grading and the quasiclassical limit.

Two catalog coefficients differ from the published tables (the x1
exponent in the quadratic set's (2,4) tail and in the cubic set's (2,5)
tail): the printed exponents contradict the bracket tables the relations
must deform, from which the catalog derives every h-linear term, and
the printed-variant tests below show they also break the comultiplication
compatibility.  The linear set is shipped verbatim; its
overlap check discovers that confluence holds only on a section of the
printed three-parameter family, and that record is asserted here.
"""

import itertools
import random
from fractions import Fraction

import pytest

import tail_record
from jetpoisson import coeffpoly
from jetpoisson import poissonlie as pl
from jetpoisson import quantum as qt
from jetpoisson import report as rep
from jetpoisson.coeffpoly import Combination, LaurentPoly, param, poly


def test_multiply_is_concatenation():
    R = qt.make_relation_set("free", 1, 3, 4, {})
    one, h = LaurentPoly.one(), LaurentPoly.var(qt.H)
    a = Combination({((1,), (2, 1)): one, ((), (3,)): h})
    b = Combination({((2,), (3,)): one})
    assert qt.tensor_multiply(a, b, R) == {((1, 2), (2, 1, 3)): one, ((2,), (3, 3)): h}


def test_h_truncation_kills_deep_terms():
    R = qt.make_relation_set("free", 1, 3, 4, {})
    h = LaurentPoly.var(qt.H)
    # h^4 x1 (x) 1 times h passes the h order 4; h^3 x1 (x) 1 times h does not
    assert qt.tensor_multiply(Combination({((1,), ()): h ** 4}),
                              Combination({((), ()): h}), R) == {}
    assert qt.tensor_multiply(Combination({((1,), ()): h ** 3}),
                              Combination({((), ()): h}), R) == {((1,), ()): h ** 4}


def test_reduce_known_commutators():
    R2 = qt.relation_set_catalog("R2")
    h = LaurentPoly.var(qt.H)
    out = qt.nc_reduce(qt.nc_word(5, 8, (1, 3)), R2)
    assert out.terms == {(3, 1): LaurentPoly.one(), (1, 1): -h, (1, 1, 1, 1): h}
    R3 = qt.relation_set_catalog("R3")
    nf = qt.commutator_normal_form(R3, 4, 5)
    assert nf.terms[(2, 1)] == 3 * h * h
    assert nf.terms[(4, 2, 1, 1, 1)] == 4 * h
    assert nf.terms[(4, 2)] == -8 * h
    assert nf.terms[(5, 1)] == 5 * h
    assert nf.terms[(5, 1, 1, 1, 1)] == -h


def test_reduce_fixpoint_and_idempotence():
    R2 = qt.relation_set_catalog("R2")
    canonical = qt.nc_word(5, 8, (5, 3, 1, 1))
    assert qt.nc_reduce(canonical, R2).terms == canonical.terms
    messy = qt.nc_word(5, 8, (1, 2, 3, 4))
    once = qt.nc_reduce(messy, R2)
    assert qt.nc_reduce(once, R2).terms == once.terms
    assert all(qt.word_is_canonical(w) for w in once.terms)


def test_reduce_of_an_element_built_past_its_order():
    """An NCElement built directly, not through nc_make, may hold terms past
    its h order: they enter at level h_order, so their swaps are kept and
    every tail product is dropped."""
    h = LaurentPoly.var(qt.H)
    R = qt.make_relation_set("deep", 1, 3, 1, {(1, 2): qt.nc_make(3, 1, {(3,): h}),
                                               (2, 3): qt.nc_make(3, 1, {(): h})})
    deep = qt.NCElement(3, 1, Combination({(1, 2): h ** 2, (2, 3, 1): h ** 3,
                                           (3, 1): h ** 5, (1, 2, 3): h}))
    assert list(qt.nc_reduce(deep, R).terms.items()) == [
        ((2, 1), h ** 2), ((3, 1), h ** 5), ((3, 2, 1), h + h ** 3)]


def test_reduce_random_site_order_agrees_with_leftmost():
    R2 = qt.relation_set_catalog("R2", {"C": Fraction(2, 3)})
    rng = random.Random(17)
    for _ in range(8):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 5)))
        det = qt.nc_reduce(qt.nc_word(5, 8, word), R2)
        rnd = qt.nc_reduce(qt.nc_word(5, 8, word), R2, rng=rng)
        assert det.terms == rnd.terms, word


def _min_scan_reduce(a, R, rng=None):
    """Reference scheduler for nc_reduce: each step rewrites the pending word
    smallest in (level, length, word) order, found by a min() scan over all,
    scans every spawned word for canonicality and h-truncates every tail
    product.  A word's level is the lowest h degree of its input coefficient,
    or its parent's level plus the lowest h degree of the rule coefficient,
    the smaller of two on a merge; a child above level h_order is dropped.
    Returns the normal form in (length, word) order, the number of terms
    truncated and the list of words rewritten."""
    done = Combination()
    pending = Combination()
    level = {}
    dropped = 0
    rewritten = []

    def put(word, c, lev):
        if qt.word_is_canonical(word):
            done.add(word, c)
        elif lev <= a.h_order:
            level[word] = min(lev, level[word]) if word in pending else lev
            pending.add(word, c)

    for word, c in a.terms.items():
        put(word, c, c.degree(qt.H, min))
    while pending:
        word = min(pending, key=lambda w: (level[w], len(w), w))
        rewritten.append(word)
        coeff = pending.pop(word)
        sites = [p for p in range(len(word) - 1) if word[p] < word[p + 1]]
        p = sites[0] if rng is None else rng.choice(sites)
        i, j = word[p], word[p + 1]
        put(word[:p] + (j, i) + word[p + 2:], coeff, level[word])
        for w2, c2 in R.tail(i, j).terms.items():
            full = coeff * c2
            c = qt.h_truncate_poly(full, a.h_order)
            dropped += len(full.terms) - len(c.terms)
            put(word[:p] + w2 + word[p + 2:], c, level[word] + c2.degree(qt.H, min))
    ordered = Combination()
    for word in sorted(done, key=lambda w: (len(w), w)):
        ordered[word] = done[word]
    return ordered, dropped, rewritten


def _custom_set(h_order):
    """Three generators, with an empty-word tail on (1, 2) and an h^2 term."""
    h = LaurentPoly.var(qt.H)
    tails = {(1, 2): {(): h},
             (1, 3): {(2,): h, (1, 1): -h * h},
             (2, 3): {(3, 1, 1): 2 * h, (): h * h, (2, 2): 3 * h}}
    return qt.make_relation_set(
        "custom", 1, 3, h_order,
        {pair: qt.nc_make(3, h_order, t) for pair, t in tails.items()})


# relation set, whether it is confluent, and a floor on the number of terms
# the reference truncation drops
_SCHEDULER_CASES = {
    "R2": lambda: (qt.relation_set_catalog("R2", {"C": Fraction(2, 3)}), True, 200),
    "R3": lambda: (qt.relation_set_catalog("R3"), True, 90),
    "R1": lambda: (qt.relation_set_catalog("R1"), False, 800),
    "R2-h2": lambda: (qt.relation_set_catalog("R2", {"C": Fraction(2, 3)}, h_order=2),
                      True, 2900),
    # the x2 x3 x4 overlap residual of R1 starts at h^5
    "R1-h3": lambda: (qt.relation_set_catalog("R1", h_order=3), True, 26000),
    # the x1 x2 x3 overlap leaves 2 h^3 x1
    "custom": lambda: (_custom_set(3), False, 700),
}


def _scheduler_inputs(R):
    """The overlap words, seeded non-canonical words of weight <= 10, words
    whose only ascent is at the left end, the right end or both, and then
    multi-term elements whose coefficients carry powers of h up to the order."""
    n = R.n_gens
    words = list(itertools.combinations(range(1, n + 1), 3))
    draw = random.Random(31)
    while len(words) < 14:
        word = tuple(draw.randint(1, n) for _ in range(4))
        if not qt.word_is_canonical(word) and sum(word) <= 10 and word not in words:
            words.append(word)
    words += [(1, n), (1, n, n - 1), (n, n - 1, 1, n), (n, 2, 1, 2)]
    inputs = [qt.nc_word(n, R.h_order, word) for word in words]
    h = LaurentPoly.var(qt.H)
    coeffs = (1 + h, h * h * 3 - h, h ** R.h_order, Fraction(-1, 2))
    for start in range(0, len(words) - 3, 3):
        inputs.append(qt.nc_make(n, R.h_order, dict(zip(words[start:start + 4], coeffs))))
    return inputs


@pytest.mark.parametrize("case", list(_SCHEDULER_CASES))
def test_heap_scheduler_matches_min_scan(case):
    R, confluent, floor = _SCHEDULER_CASES[case]()
    order_dependent = dropped = 0
    for element in _scheduler_inputs(R):
        leftmost = qt.nc_reduce(element, R)
        reference, lost, _ = _min_scan_reduce(element, R)
        assert list(leftmost.terms.items()) == list(reference.items()), element
        dropped += lost
        for seed in range(3):
            heap_rng, scan_rng = random.Random(seed), random.Random(seed)
            shuffled = qt.nc_reduce(element, R, rng=heap_rng)
            reference, lost, _ = _min_scan_reduce(element, R, scan_rng)
            assert list(shuffled.terms.items()) == list(reference.items()), (element, seed)
            assert heap_rng.getstate() == scan_rng.getstate(), (element, seed)
            dropped += lost
            order_dependent += shuffled.terms != leftmost.terms
    assert dropped >= floor
    # a set that is not confluent has normal forms that depend on the order
    # in which words are rewritten, and there this pins the order itself
    assert bool(order_dependent) != confluent


@pytest.mark.parametrize("which, params", [
    ("R2", {"C": Fraction(2, 3)}), ("R2", None), ("R3", None), ("R1_pbw", None)])
def test_graded_sets_rewrite_each_word_at_most_once(monkeypatch, which, params):
    """On a graded set and a homogeneous input the level is the h degree of
    every term of a word's coefficient, so no word is rewritten twice:
    nc_reduce makes one RelationSet.tail call per distinct word that the
    reference rewrites.  The inputs are the one-word scheduler inputs and
    the overlap differences that pbw_overlap_check reduces."""
    R = qt.relation_set_catalog(which, params)
    assert qt.verify_grading(R).passed
    inputs = [e for e in _scheduler_inputs(R) if len(e.terms) == 1]
    inputs += [qt.nc_sub(qt._one_step(R, t, 0), qt._one_step(R, t, 1))
               for t in itertools.combinations(range(1, R.n_gens + 1), 3)]
    steps = []
    tail = qt.RelationSet.tail

    def counted(self, i, j):
        steps.append((i, j))
        return tail(self, i, j)

    monkeypatch.setattr(qt.RelationSet, "tail", counted)
    for element in inputs:
        for seed in (None, 0, 1):
            rng, scan_rng = (None, None) if seed is None else (random.Random(seed), random.Random(seed))
            reference, _, rewritten = _min_scan_reduce(element, R, scan_rng)
            steps.clear()
            out = qt.nc_reduce(element, R, rng=rng)
            assert list(out.terms.items()) == list(reference.items()), (element, seed)
            assert len(steps) == len(set(rewritten)) == len(rewritten), (element, seed)


@pytest.mark.parametrize("n_gens", [1, 3, 5, 7, 8])
def test_packed_words_keep_order_and_ascents(n_gens):
    """A packed word decodes to itself, int order is (length, word) order,
    and the guard masks flag exactly the ascents the tuple scan finds.  The
    edge marker n_gens + 1 needs one more bit than the letters at 3 and 7
    generators; words of up to 40 letters span several machine digits."""
    width, guards, _ = qt.make_relation_set("free", 1, n_gens, 2, {}).packing
    draw = random.Random(n_gens)
    words = {()} | {tuple(draw.randint(1, n_gens) for _ in range(draw.choice((1, 2, 5, 40))))
                    for _ in range(300)}
    packed = {qt._packed(word, width, n_gens + 1): word for word in words}
    assert [packed[w] for w in sorted(packed)] == sorted(words, key=lambda w: (len(w), w))
    for w, word in packed.items():
        assert qt._unpacked(w, width) == word
        low, g = guards[w.bit_length()]
        ascents = (w + low - (w >> width)) & g
        # the guard bit of the right letter of the pair at p, and no other bit
        flagged = [p for p in range(len(word) - 1) if ascents >> (len(word) - 1 - p) * width - 1 & 1]
        assert flagged == [p for p in range(len(word) - 1) if word[p] < word[p + 1]], word
        assert ascents.bit_count() == len(flagged), word


def _seven_set(h_order):
    """Seven generators, so the edge marker 8 needs a wider field than the
    letters, with a tail that holds the swapped pair itself, an empty-word
    tail and an h^2 term."""
    h = LaurentPoly.var(qt.H)
    tails = {(1, 7): {(7, 1): h, (): h},
             (2, 5): {(5, 2, 2): 2 * h, (3,): -h * h},
             (3, 4): {(4, 3, 1): h},
             (6, 7): {(7, 6): -h, (7, 7, 1): h}}
    return qt.make_relation_set(
        "seven", 1, 7, h_order,
        {pair: qt.nc_make(7, h_order, t) for pair, t in tails.items()})


def _edge_inputs(R, words):
    """Each word alone and, at the left edge, the right edge and in the
    middle of a longer word, times h^order, so that every tail product
    truncates to zero."""
    n, order = R.n_gens, R.h_order
    h_top = LaurentPoly.var(qt.H) ** order
    inputs = []
    for word in words:
        for padded in (word, word + (1,), (n,) + word, (n,) + word + (1,)):
            inputs += [qt.nc_word(n, order, padded), qt.nc_make(n, order, {padded: h_top})]
    return inputs


@pytest.mark.parametrize("case", ["custom", "seven", "long"])
def test_packed_reduction_edges_match_min_scan(case):
    """The packed-word nc_reduce against the reference scheduler: the same
    items in the same order, and the same rng state after each reduction."""
    if case == "custom":
        R = _custom_set(3)
        inputs = _edge_inputs(R, [(1, 2), (1, 3), (2, 3), (1, 2, 3), (2, 3, 1, 2)])
    elif case == "seven":
        R = _seven_set(3)
        inputs = _edge_inputs(R, [(1, 7), (2, 5), (3, 4), (6, 7), (1, 6, 7), (2, 5, 7)])
    else:
        R = _custom_set(1)
        draw = random.Random(32)
        inputs = [qt.nc_word(3, 1, tuple(draw.randint(1, 3) for _ in range(32)))]
    for element in inputs:
        reference, _, _ = _min_scan_reduce(element, R)
        assert list(qt.nc_reduce(element, R).terms.items()) == list(reference.items()), element
        heap_rng, scan_rng = random.Random(5), random.Random(5)
        shuffled = qt.nc_reduce(element, R, rng=heap_rng)
        reference, _, _ = _min_scan_reduce(element, R, scan_rng)
        assert list(shuffled.terms.items()) == list(reference.items()), element
        assert heap_rng.getstate() == scan_rng.getstate(), element


def test_reduce_preserves_graded_degree():
    from jetpoisson.coeffpoly import homogeneous_graded_degree

    R2 = qt.relation_set_catalog("R2")
    rng = random.Random(23)
    for _ in range(6):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 4)))
        weight = sum(g - 1 for g in word)
        out = qt.nc_reduce(qt.nc_word(5, 8, word), R2)
        for w, c in out.terms.items():
            deg = homogeneous_graded_degree(c, 2, word_weight=sum(g - 1 for g in w))
            assert deg == weight, (word, w)


def test_overlap_checks_for_shipped_sets():
    assert qt.pbw_overlap_check(qt.relation_set_catalog("R2")).passed
    assert qt.pbw_overlap_check(qt.relation_set_catalog("R3")).passed
    assert qt.pbw_overlap_check(qt.relation_set_catalog("R1_pbw")).passed


def test_overlap_check_is_stable_under_deeper_truncation():
    for which in ("R2", "R3"):
        base = qt.relation_set_catalog(which)
        deeper = qt.relation_set_catalog(which, h_order=base.h_order + 2)
        assert qt.pbw_overlap_check(base).passed
        assert qt.pbw_overlap_check(deeper).passed


def test_ansatz_overlap_pins_first_constant():
    bad = qt.relation_set_catalog("R2_ansatz", {"C1": 1, "C2": "symbolic", "C3": 0})
    report = qt.pbw_overlap_check(bad, triples=[(2, 3, 4)])
    assert not report.passed
    assert report.witness["indices"] == [2, 3, 4]
    good = qt.relation_set_catalog("R2_ansatz", {"C1": 0, "C2": "symbolic", "C3": 0})
    assert qt.pbw_overlap_check(good, triples=[(2, 3, 4)]).passed
    symbolic = qt.relation_set_catalog("R2_ansatz", None)
    report = qt.pbw_overlap_check(symbolic, triples=[(2, 3, 4)])
    assert not report.passed and "C1" in report.witness["residual"]


def test_ansatz_overlaps_pin_second_constant():
    # with the first constant zeroed, four specific overlaps force 2 C2 = 9
    # and the remaining length-3 overlap resolves freely
    good = qt.relation_set_catalog("R2_ansatz", {"C1": 0, "C2": "symbolic", "C3": 0})
    for triple in ((1, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5)):
        report = qt.pbw_overlap_check(good, triples=[triple])
        assert not report.passed and "C2" in report.witness["residual"], triple
    assert qt.pbw_overlap_check(good, triples=[(1, 2, 5)]).passed
    pinned = qt.relation_set_catalog(
        "R2_ansatz", {"C1": 0, "C2": Fraction(9, 2), "C3": "symbolic"})
    assert qt.pbw_overlap_check(pinned).passed


def test_ansatz_with_pinned_constants_equals_shipped_set():
    pinned = qt.relation_set_catalog(
        "R2_ansatz", {"C1": 0, "C2": Fraction(9, 2), "C3": "symbolic"})
    shipped = qt.relation_set_catalog("R2", {"C": "symbolic"})
    sub = {param("C3"): LaurentPoly.var(param("C"))}
    for pair in shipped.tails:
        got = {w: c.substitute(sub) for w, c in pinned.tail(*pair).terms.items()}
        assert got == shipped.tail(*pair).terms, pair


def test_linear_set_overlap_constraint_record():
    # shipped verbatim, the printed three-parameter family is confluent only
    # on the section C5 = 2 C3^2 + 36 C3 + 4 C4 - 38; the unconstrained check
    # reports the residual at the x2 x3 x4 overlap
    R1 = qt.relation_set_catalog("R1")
    report = qt.pbw_overlap_check(R1)
    assert not report.passed
    assert report.witness["indices"] == [2, 3, 4]
    for name in ("C3", "C4", "C5"):
        assert name in report.witness["residual"]
    for (c3, c4) in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))):
        c5 = 2 * c3 * c3 + 36 * c3 + 4 * c4 - 38
        section = qt.relation_set_catalog("R1", {"C3": c3, "C4": c4, "C5": c5})
        assert qt.pbw_overlap_check(section).passed
        off = qt.relation_set_catalog("R1", {"C3": c3, "C4": c4, "C5": c5 + 1})
        assert not qt.pbw_overlap_check(off).passed


def _overlap_two_reductions(R, triple):
    """pbw_overlap_check on one triple as it reduced each side on its own
    and subtracted the two normal forms."""
    params = {"set": R.label, "h_order": R.h_order, "triples": 1}
    left, right = qt._one_step(R, triple, 0), qt._one_step(R, triple, 1)
    diff = qt.nc_sub(qt.nc_reduce(left, R), qt.nc_reduce(right, R))
    if not diff.is_zero():
        word = min(diff.terms, key=qt._word_order)
        return rep.failed(
            "pbw-overlap", triple,
            f"normal forms differ; e.g. ({diff.terms[word].render()}) "
            f"{' '.join(qt._word_factors(word))}", **params)
    return rep.passed("pbw-overlap", **params)


def test_overlap_check_reduces_the_difference_once(monkeypatch):
    """One reduction of left - right gives the record of two reductions on
    every triple, also on the sets that are not confluent."""
    calls = []
    reduce = qt.nc_reduce

    def counting(a, R, rng=None):
        calls.append(a)
        return reduce(a, R, rng)

    sets = [qt.relation_set_catalog(which)
            for which in ("R1", "R1_pbw", "R2", "R3", "R2_ansatz")]
    sets.append(qt.relation_set_catalog("R2", {"C": Fraction(2, 3)}))
    sets += [qt.relation_set_catalog(which, h_order=qt.relation_set_catalog(which).h_order + 2)
             for which in ("R1", "R2", "R3")]
    statuses = []
    for R in sets:
        for triple in itertools.combinations(range(1, R.n_gens + 1), 3):
            want = _overlap_two_reductions(R, triple).to_dict()
            monkeypatch.setattr(qt, "nc_reduce", counting)
            got = qt.pbw_overlap_check(R, triples=[triple]).to_dict()
            monkeypatch.setattr(qt, "nc_reduce", reduce)
            assert got == want, (R.label, R.h_order, triple)
            statuses.append(want["status"])
    assert len(calls) == len(statuses) == 72
    assert statuses.count("fail") == 8  # R1 at x2 x3 x4 (twice) and six R2_ansatz triples


def test_delta_generator_printed_rows():
    one = LaurentPoly.one()
    assert qt.delta_generator(1) == {((1,), (1,)): one}
    assert qt.delta_generator(2) == {((1,), (2,)): one, ((2,), (1, 1)): one}
    assert qt.delta_generator(3) == {
        ((1,), (3,)): one, ((2,), (1, 2)): one, ((2,), (2, 1)): one,
        ((3,), (1, 1, 1)): one}
    # the length-5 row ends with the five-fold split on x1^5
    d5 = qt.delta_generator(5)
    assert d5[((5,), (1, 1, 1, 1, 1))] == one
    assert d5[((2,), (4, 1))] == one
    assert d5[((3,), (1, 3, 1))] == one


def test_tensor_reduce_matches_the_per_pair_loop():
    """tensor_reduce folds each table coefficient c into the left normal form
    and lets the product cap h; the reference truncates every scaled pair
    product, h_truncate_poly(c * v, order), and adds it in at once."""
    R = qt.relation_set_catalog("R2", {"C": Fraction(2, 3)}, h_order=2)
    h = LaurentPoly.var(qt.H)
    coeffs = (1 + h, h * h * 3 - h, h * h, Fraction(-1, 2), 2 * h - 1)
    draw = random.Random(53)
    table = Combination()
    for _ in range(12):
        lw, rw = (tuple(draw.randint(1, 5) for _ in range(draw.randint(1, 3))) for _ in range(2))
        table.add((lw, rw), poly(draw.choice(coeffs)))

    def normal_form(word):
        return qt.nc_reduce(qt.nc_word(R.n_gens, R.h_order, word), R).terms

    want, dropped = Combination(), 0
    for (lw, rw), c in table.items():
        part = Combination()
        for wl, cl in normal_form(lw).items():
            for wr, cr in normal_form(rw).items():
                full = c * (cl * cr)
                kept = qt.h_truncate_poly(full, R.h_order)
                dropped += len(full.terms) - len(kept.terms)
                part.add((wl, wr), kept)
        want.add_all(part)
    assert list(qt.tensor_reduce(table, R).items()) == list(want.items())
    assert dropped >= 150, dropped  # observed 158


def test_delta_homomorphism_for_shipped_sets():
    for which in ("R2", "R3", "R1", "R1_pbw"):
        R = qt.relation_set_catalog(which)
        assert qt.verify_delta_homomorphism(R).passed, which


def _delta_per_relation(R):
    """verify_delta_homomorphism with one normal-form table per relation:
    each tensor_reduce call keeps its own."""
    params = {"set": R.label, "h_order": R.h_order}
    for (i, j) in sorted(R.tails):
        di, dj = qt.delta_generator(i), qt.delta_generator(j)
        diff = qt.tensor_multiply(di, dj, R).add_all(qt.tensor_multiply(dj, di, R), -1)
        diff.add_all(qt.delta_of_element(R.tail(i, j), R), -1)
        residual = qt.tensor_reduce(diff, R)
        if residual:
            (lw, rw) = min(residual, key=lambda k: (len(k[0]) + len(k[1]), k))
            txt = (f"({residual[(lw, rw)].render()}) "
                   f"{' '.join(qt._word_factors(lw)) or '1'} (x) "
                   f"{' '.join(qt._word_factors(rw)) or '1'}")
            return rep.failed("delta-homomorphism", (i, j), txt, **params)
    return rep.passed("delta-homomorphism", **params)


def test_delta_homomorphism_matches_a_table_per_relation():
    h = LaurentPoly.var(qt.H)
    sets = [qt.relation_set_catalog(which)
            for which in ("R1", "R2", "R3", "R2_ansatz", "R1_pbw")]
    sets.append(qt.relation_set_catalog("R2", {"C": Fraction(2, 3)}))
    sets.append(_with_tail(qt.relation_set_catalog("R2", {"C": 0}), (2, 4),
                           {(2, 2, 1, 1, 1): 3 * h, (2, 2): -4 * h}))
    sets.append(qt.make_relation_set("bad", 2, 2, 4, {(1, 2): qt.nc_make(2, 4, {(1, 1): h})}))
    statuses = []
    for R in sets:
        want = _delta_per_relation(R).to_dict()
        assert qt.verify_delta_homomorphism(R).to_dict() == want, R.label
        statuses.append(want["status"])
    assert statuses.count("fail") == 3  # R2_ansatz, the printed R2 and the bad set


def test_delta_homomorphism_reduces_each_word_once(monkeypatch):
    reduced = []
    reduce = qt.nc_reduce

    def recording(a, R, rng=None):
        reduced.extend(a.terms)
        return reduce(a, R, rng)

    monkeypatch.setattr(qt, "nc_reduce", recording)
    R = qt.relation_set_catalog("R2")
    assert qt.verify_delta_homomorphism(R).passed
    # a table per relation reduced 713 words, 407 of them distinct
    assert len(reduced) == len(set(reduced)) == 407


def test_tensor_reduce_alone_keeps_its_own_table():
    # the same words reduce differently in the two sets, so a table left
    # over from an earlier call would show in the later result
    table = Combination({((1, 3), (2, 4)): LaurentPoly.one(), ((2, 3, 4), (1, 2)): 2})
    R2 = qt.relation_set_catalog("R2", {"C": Fraction(2, 3)})
    R3 = qt.relation_set_catalog("R3")
    results = []
    for R in (R2, R3, R2):
        results.append(qt.tensor_reduce(table, R))
        assert results[-1] == qt.tensor_reduce(table, R, {}), R.label
    assert results[0] != results[1] and results[0] == results[2]


def _delta_residual_tables(R):
    """The tensor table of each relation that verify_delta_homomorphism reduces."""
    for (i, j) in sorted(R.tails):
        di, dj = qt.delta_generator(i), qt.delta_generator(j)
        diff = qt.tensor_multiply(di, dj, R).add_all(qt.tensor_multiply(dj, di, R), -1)
        yield diff.add_all(qt.delta_of_element(R.tail(i, j), R), -1)


_BATCH_SETS = {
    "R1": lambda: qt.relation_set_catalog("R1"),
    "R1_pbw": lambda: qt.relation_set_catalog("R1_pbw"),
    "R2-C2/3": lambda: qt.relation_set_catalog("R2", {"C": Fraction(2, 3)}),
    "R2-Csym": lambda: qt.relation_set_catalog("R2"),
    "R3": lambda: qt.relation_set_catalog("R3"),
    "R2-printed": lambda: _with_tail(qt.relation_set_catalog("R2", {"C": 0}), (2, 4),
                                     {(2, 2, 1, 1, 1): 3 * LaurentPoly.var(qt.H),
                                      (2, 2): -4 * LaurentPoly.var(qt.H)}),
}


@pytest.mark.parametrize("name", list(_BATCH_SETS))
def test_batched_normal_forms_match_per_word_reduction(monkeypatch, name):
    """tensor_reduce reduces the words new to its table in one nc_reduce
    call; every word of every Delta residual table gets the items, in order,
    of its own reduction, also on verbatim R1, which is not confluent."""
    R = _BATCH_SETS[name]()
    tables = list(_delta_residual_tables(R))
    sizes = []
    reduce = qt.nc_reduce

    def counting(a, R, rng=None):
        sizes.append(len(a.terms))
        return reduce(a, R, rng)

    monkeypatch.setattr(qt, "nc_reduce", counting)
    normal_forms = {}
    for diff in tables + tables[:1]:  # the repeated table has no new word to reduce
        qt.tensor_reduce(diff, R, normal_forms)
    monkeypatch.setattr(qt, "nc_reduce", reduce)
    assert 0 not in sizes and len(sizes) <= len(tables)
    assert sum(sizes) == len(normal_forms) > 100
    for word, nf in normal_forms.items():
        want = qt.nc_reduce(qt.nc_word(R.n_gens, R.h_order, word), R).terms
        assert nf == list(want.items()), (name, word)


def test_tensor_reduce_batches_more_new_words_than_a_tag_power_holds(monkeypatch):
    """A tag power is a key exponent, below coeffpoly._HALF, so more new
    words than that are reduced in batches of at most _HALF, one nc_reduce
    call each; every word still gets its own normal form, and the result is
    that of reducing the words one at a time.  Words that need rewriting sit
    at the end of the first batch and in the second."""
    R = qt.relation_set_catalog("R2", {"C": Fraction(2, 3)})
    half = coeffpoly._HALF
    canonical = [w for length in range(1, 17)
                 for w in itertools.combinations_with_replacement(range(R.n_gens, 0, -1), length)]
    words = canonical[:half - 3] + [(1, 2), (1, 3, 2), (2, 4), (1, 5), (3, 1, 4)]
    words += canonical[half:half + 22]
    h = LaurentPoly.var(qt.H)
    table = Combination()
    for k in range(0, len(words), 2):
        table.add((words[k], words[k + 1]), 1 + h if k % 4 else poly(Fraction(-2, 3)))
    sizes = []
    reduce = qt.nc_reduce

    def counting(a, R, rng=None):
        sizes.append(len(a.terms))
        return reduce(a, R, rng)

    monkeypatch.setattr(qt, "nc_reduce", counting)
    normal_forms = {}
    got = qt.tensor_reduce(table, R, normal_forms)
    monkeypatch.setattr(qt, "nc_reduce", reduce)
    assert sizes == [half, len(words) - half] and len(normal_forms) == len(words)
    for word in words:
        want = qt.nc_reduce(qt.nc_word(R.n_gens, R.h_order, word), R).terms
        assert normal_forms[word] == list(want.items()), word
    assert sum(len(normal_forms[w]) > 1 for w in words) >= 4
    assert list(got.items()) == list(_tensor_reduce_per_term(table, R).items())


@pytest.mark.parametrize("which, h_order", [("R2", None), ("R2", 2), ("R1", None)])
def test_tagged_reduction_splits_into_each_normal_form(which, h_order):
    """One reduction of sum_k tag^k a_k, split by the power of the tag, gives
    each a_k's normal form when the a_k share words and their coefficients
    carry h and parameters: reduction is linear whether or not the set is
    confluent, and the h cap is a linear projection."""
    R = qt.relation_set_catalog(which, h_order=h_order)
    h, C = LaurentPoly.var(qt.H), LaurentPoly.var(param("C"))
    coeffs = (1 + h, C * h - 2, h ** 3 * Fraction(1, 3), C * C + h, Fraction(-5, 2), h ** 2 - C)
    draw = random.Random(71)
    words = []
    while len(words) < 8:
        word = tuple(draw.randint(1, R.n_gens) for _ in range(draw.randint(2, 4)))
        if sum(g - 1 for g in word) <= 6 and word not in words:
            words.append(word)
    elements = [qt.nc_make(R.n_gens, R.h_order, {w: draw.choice(coeffs) for w in draw.sample(words, 3)})
                for _ in range(6)]
    tagged = Combination()
    for k, a in enumerate(elements):
        for word, c in a.terms.items():
            tagged.add(word, c * LaurentPoly.var(qt._TAG, k))
    parts = [Combination() for _ in elements]
    for word, c in qt.nc_reduce(qt.NCElement(R.n_gens, R.h_order, tagged), R).terms.items():
        for k, part in c.coefficients(qt._TAG).items():
            parts[k][word] = part
    for a, got in zip(elements, parts):
        assert list(got.items()) == list(qt.nc_reduce(a, R).terms.items()), a


@pytest.mark.parametrize("which", ["R1", "R2", "R3"])
def test_coassociativity_builds_each_delta_prefix_once(monkeypatch, which):
    """verify_counit_coassoc passes one Delta prefix table to all its
    generators, so no prefix's Delta is built twice in one call."""
    R = qt.relation_set_catalog(which)
    built = []
    delta_of_word = qt._delta_of_word

    def recording(word, deltas, R):
        if word not in deltas:
            built.append(word)
        return delta_of_word(word, deltas, R)

    monkeypatch.setattr(qt, "_delta_of_word", recording)
    assert qt.verify_counit_coassoc(R).passed
    assert len(built) == len(set(built)) > R.n_gens


def _tensor_reduce_per_term(a, R):
    """tensor_reduce as one product per tensor term: the left normal form
    scaled by the term's coefficient, times the right normal form under the
    h cap, added into the result; each word reduced once per call."""
    table = {}

    def normal_form(word):
        if word not in table:
            table[word] = qt.nc_reduce(qt.nc_word(R.n_gens, R.h_order, word), R).terms
        return table[word]

    out = Combination()
    for (lw, rw), c in a.items():
        product = Combination()
        for wl, u in normal_form(lw).items():
            for wr, v in normal_form(rw).items():
                product.add((wl, wr), qt.h_truncate_poly(c * u * v, R.h_order))
        out.add_all(product)
    return out


@pytest.mark.parametrize("lower", [False, True], ids=["default-h", "lower-h"])
def test_tensor_reduce_matches_the_per_term_loop(lower):
    """The one raw sum gives the per-term products' result, item order
    included, on the Delta residual of every relation of every catalog set.
    At the default orders the grading keeps every pair product below the h
    cap; at a quarter of them the cap drops terms."""
    h = LaurentPoly.var(qt.H)
    sets = []
    for which, params in (("R1", None), ("R1_pbw", None), ("R2", None),
                          ("R2", {"C": Fraction(2, 3)}), ("R3", None), ("R2_ansatz", None)):
        default = qt.relation_set_catalog(which, params).h_order
        sets.append(qt.relation_set_catalog(which, params, max(1, default // 4) if lower else None))
    R2 = qt.relation_set_catalog("R2", {"C": 0}, 2 if lower else None)
    sets.append(_with_tail(R2, (2, 4), {(2, 2, 1, 1, 1): 3 * h, (2, 2): -4 * h}))
    nonzero = 0
    for R in sets:
        for (i, j) in sorted(R.tails):
            di, dj = qt.delta_generator(i), qt.delta_generator(j)
            diff = qt.tensor_multiply(di, dj, R).add_all(qt.tensor_multiply(dj, di, R), -1)
            diff.add_all(qt.delta_of_element(R.tail(i, j), R), -1)
            got = qt.tensor_reduce(diff, R)
            assert list(got.items()) == list(_tensor_reduce_per_term(diff, R).items()), \
                (R.label, R.h_order, i, j)
            nonzero += bool(got)
    # at both orders R2_ansatz fails at (2,5), (3,5) and (4,5), and the
    # printed R2 (2,4) tail at (2,4), (2,5), (3,4), (3,5) and (4,5)
    assert nonzero == 8, nonzero


def _delta_letter_by_letter(a, R):
    """delta_of_element as one tensor product per letter of every word."""
    total = Combination()
    for word, c in a.terms.items():
        cur = Combination({((), ()): 1})
        for g in word:
            cur = qt.tensor_multiply(cur, qt.delta_generator(g), R)
        total.add_all(cur, c)
    return total


def test_delta_of_element_matches_the_letter_by_letter_product():
    h = LaurentPoly.var(qt.H)
    element = {(): Fraction(3, 2), (2, 3): h, (2, 3, 1): Fraction(1, 3) - h * h,
               (2, 3, 2): h * Fraction(5, 7), (2,): -2, (1, 1): h ** 3 + 1,
               (3, 2, 1, 4): Fraction(-4, 9) * h, (3, 2, 1): h ** 2, (5, 1, 4): 7}
    for R in (qt.relation_set_catalog("R2"), qt.relation_set_catalog("R2", h_order=2)):
        a = qt.nc_make(R.n_gens, R.h_order, element)
        got = qt.delta_of_element(a, R)
        assert list(got.items()) == list(_delta_letter_by_letter(a, R).items()), R.h_order
        assert got[((), ())] == poly(Fraction(3, 2))
    for which in ("R1", "R2", "R3"):
        R = qt.relation_set_catalog(which)
        for pair in sorted(R.tails):
            want = _delta_letter_by_letter(R.tail(*pair), R)
            assert list(qt.delta_of_element(R.tail(*pair), R).items()) == list(want.items())


def test_counit_and_coassociativity():
    for which in ("R2", "R3", "R1"):
        R = qt.relation_set_catalog(which)
        assert qt.verify_counit_coassoc(R).passed, which
    # the counit collapse on the third comultiplication row
    R = qt.relation_set_catalog("R2")
    d3 = qt.delta_generator(3)
    collapsed = {}
    for (lw, rw), c in d3.items():
        if all(g == 1 for g in lw):
            collapsed[rw] = collapsed.get(rw, LaurentPoly.zero()) + c
    assert collapsed == {(3,): LaurentPoly.one()}
    # frozen three-slot expansion for the quadratic generator
    lhs = {}
    for (lw, rw), c in qt.delta_generator(2).items():
        for (a, b), c2 in qt.delta_of_element(qt.nc_word(5, 8, lw), R).items():
            lhs[(a, b, rw)] = c * c2
    one = LaurentPoly.one()
    assert lhs == {((1,), (1,), (2,)): one, ((1,), (2,), (1, 1)): one,
                   ((2,), (1, 1), (1, 1)): one}


def test_counit_on_relation_tails():
    R = qt.relation_set_catalog("R2")
    for pair in R.tails:
        assert qt.counit(R.tail(*pair)).is_zero(), pair
    # c(f) = h (-1 + 1) = 0 on the (1,3) tail specifically
    tail = R.tail(1, 3)
    assert qt.counit(tail).is_zero() and len(tail.terms) == 2


def test_grading_of_shipped_sets_and_degree_examples():
    for which, d in (("R2", 2), ("R3", 3), ("R1", 1)):
        R = qt.relation_set_catalog(which)
        assert R.d == d
        assert qt.verify_grading(R).passed, which
    # spot degrees: rule (3,4) of the quadratic set is homogeneous of 5,
    # the cubic set's 3 h^2 x2 x1 term weighs 2*3 + 1 + 0 = 7 = 4 + 5 - 2
    R3 = qt.relation_set_catalog("R3")
    tail = R3.tail(4, 5)
    h2 = tail.terms[(2, 1)].coefficient(qt.H, 2)
    assert h2 == LaurentPoly.const(3)


def test_grading_negative_control():
    h = LaurentPoly.var(qt.H)
    tails = {(1, 2): qt.nc_make(2, 4, {(1, 1): h})}  # degree 1+0 + |h| = 3 != 1
    bad = qt.make_relation_set("bad", 2, 2, 4, tails)
    report = qt.verify_grading(bad)
    assert not report.passed
    assert report.witness["indices"] == [1, 2]


def test_quasiclassical_limits_match_bracket_tables():
    # the catalog reads its h-linear parts off the closed-form table; this
    # compares them with the table built from the generating series
    for which, d, n in (("R2", 2, 5), ("R3", 3, 5), ("R1", 1, 4),
                        ("R1_pbw", 1, 4), ("R2_ansatz", 2, 5)):
        R = qt.relation_set_catalog(which)
        omega = pl.build_omega(pl.phi_power_family(d), n)
        assert qt.verify_quasiclassical(R, omega).passed, which


def test_quasiclassical_negative_control():
    R = qt.relation_set_catalog("R3")
    omega = pl.build_omega(pl.phi_power_family(3), 5).perturbed(1, 4, LaurentPoly.one())
    report = qt.verify_quasiclassical(R, omega)
    assert not report.passed and report.witness["indices"] == [1, 4]


# -- printed-variant records --------------------------------------------------


def _with_tail(R, pair, terms):
    tails = dict(R.tails)
    tails[pair] = qt.nc_make(R.n_gens, R.h_order, terms)
    return qt.make_relation_set(R.label + "-printed", R.d, R.n_gens, R.h_order, tails)


def test_printed_quadratic_variant_breaks_compatibility():
    # (2,4) tail with the printed x1^3 instead of x1^2: the comultiplication
    # stops being an algebra map and the h-linear part leaves the bracket table
    R2 = qt.relation_set_catalog("R2", {"C": 0})
    h = LaurentPoly.var(qt.H)
    printed = _with_tail(R2, (2, 4), {(2, 2, 1, 1, 1): 3 * h, (2, 2): -4 * h})
    report = qt.verify_delta_homomorphism(printed)
    assert not report.passed and report.witness["indices"] == [2, 4]
    omega = pl.build_omega(pl.phi_power_family(2), 5)
    assert not qt.verify_quasiclassical(printed, omega).passed
    assert qt.verify_grading(printed).passed  # the grading cannot see it


def test_printed_cubic_variant_breaks_compatibility():
    # (2,5) tail with the printed x1^4 instead of x1^3
    R3 = qt.relation_set_catalog("R3")
    h = LaurentPoly.var(qt.H)
    printed = _with_tail(R3, (2, 5), {(2, 2, 1, 1, 1, 1): 4 * h, (2, 2): -4 * h})
    report = qt.verify_delta_homomorphism(printed)
    assert not report.passed and report.witness["indices"] == [2, 5]
    omega = pl.build_omega(pl.phi_power_family(3), 5)
    assert not qt.verify_quasiclassical(printed, omega).passed
    assert qt.verify_grading(printed).passed


def test_unknown_parameters_rejected():
    with pytest.raises(qt.UnknownParameters):
        qt.relation_set_catalog("R2", {"C9": 1})
    with pytest.raises(ValueError):
        qt.relation_set_catalog("R9")


def test_a_parameter_given_twice_is_rejected():
    """R2_ansatz reads C as C3; given both, neither silently wins."""
    with pytest.raises(qt.UnknownParameters, match="C3 given twice"):
        qt.relation_set_catalog("R2_ansatz", {"C": 1, "C3": 2})
    alias = qt.relation_set_catalog("R2_ansatz", {"C": 2})
    assert alias.tails == qt.relation_set_catalog("R2_ansatz", {"C3": 2}).tails


# -- the catalog against its written-out record --------------------------------


_RECORD_CASES = [
    ("R1", None), ("R1", {"C3": Fraction(1, 2), "C4": -3, "C5": 7}),
    ("R1_pbw", None), ("R1_pbw", {"C3": Fraction(2, 3), "C4": 5}),
    ("R2", None), ("R2", {"C": Fraction(2, 3)}), ("R2", {"C": 0}),
    ("R2_ansatz", None), ("R2_ansatz", {"C1": 1, "C2": Fraction(9, 2), "C3": Fraction(-1, 3)}),
    ("R2_ansatz", {"C1": 0, "C2": "symbolic", "C": 5}),
    ("R3", None),
]


@pytest.mark.parametrize("h_order", [None, 3, 12])
@pytest.mark.parametrize("which,params", _RECORD_CASES,
                         ids=[f"{w}-{'sym' if p is None else 'vals'}{k}"
                              for k, (w, p) in enumerate(_RECORD_CASES)])
def test_catalog_tails_match_the_record(which, params, h_order):
    """Each derived tail (h times the bracket, plus the terms of h^2 and above,
    R2 and R1_pbw as sections) holds exactly the terms written out in
    tests/tail_record.py."""
    R = qt.relation_set_catalog(which, params, h_order)
    record = tail_record.recorded_tails(which, params, h_order)
    derived = {pair: dict(t.terms) for pair, t in R.tails.items() if t.terms}
    assert derived.keys() == record.keys()
    for pair, terms in record.items():
        assert derived[pair] == terms, pair
