"""Orbit averages as integer sums over bitsets against the per-state oracle.

On NC(n) the reports sum the term list of ``Statistic.compile`` from the
per-orbit popcount sums of ``dynamics.orbit_sums``, which lists no orbit;
the oracle is ``orbit_average``, which sums
``Statistic.evaluate`` as Fractions over ``Orbit`` objects.  On graphs the
reports must equal a Fraction average of ``tests/brute.py`` psi_v and
cardinality over brute-force orbits.  Verdicts, decided on integer sums by
cross-multiplication, must equal the ones read off those Fractions.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles.dynamics import (
    HomomesyReport,
    Statistic,
    check_homomesy,
    homomesy_report,
    orbit_average,
    orbits,
)
from nctoggles.indsets import (
    CliquishCertificate,
    SimpleGraph,
    verify_cardinality_homomesy,
)
from nctoggles.ncpartition import NCPartition, enumerate_masks
from nctoggles.verify import sample_qualifying_word
from nctoggles.words import ToggleWord

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def basis_keys(n):
    return (
        [("alpha",), ("beta",), ("card",)]
        + [("chi", i, j) for i, j in brute.all_arcs(n)]
        + [("psi", k) for k in range(1, n)]
    )


@st.composite
def statistics(draw, n):
    """Sums of up to five scaled basis elements (repeats allowed); some are
    cancelled to the zero statistic by subtracting a copy."""
    stat = Statistic({})
    for key in draw(st.lists(st.sampled_from(basis_keys(n)), max_size=5)):
        stat = stat + draw(COEFFS) * Statistic({key: 1})
    if draw(st.integers(0, 4)) == 0:
        stat = stat + (-1) * stat
        assert stat == Statistic({})
    return stat


@st.composite
def words_with_statistics(draw, max_n=7, max_len=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    arcs = brute.all_arcs(n)
    word = draw(st.lists(st.sampled_from(arcs), max_size=max_len)) if arcs else []
    return ToggleWord(n, word), draw(statistics(n))


@settings(max_examples=200, deadline=None)
@given(words_with_statistics())
@example((ToggleWord(0), Statistic.beta()))
@example((ToggleWord(1), Statistic.beta() - Statistic.alpha()))
@example((ToggleWord(6, [(1, 2), (3, 4)]), Fraction(-1, 2) * Statistic.beta()))
@example((ToggleWord(7, [(1, 7), (2, 3), (1, 7)]), Statistic.psi(2) - Statistic.beta()))
@example((ToggleWord(5), Statistic.alpha() - Statistic.card()))
def test_report_averages_match_per_state_oracle(case):
    word, stat = case
    orbit_list = orbits(word)
    report = check_homomesy(word, stat)
    assert report.orbit_sizes == tuple(o.size for o in orbit_list)
    assert report.averages == tuple(orbit_average(stat, o) for o in orbit_list)
    assert all(type(avg) is Fraction for avg in report.averages)


@settings(max_examples=200, deadline=None)
@given(words_with_statistics())
def test_compiled_value_is_an_int_matching_evaluate(case):
    word, stat = case
    den, const, terms = stat.compile(word.n)
    assert type(den) is int and den >= 1 and type(const) is int
    assert all(type(m) is int and type(w) is int and w for m, w in terms)
    assert len({m for m, _ in terms}) == len(terms)
    for mask in enumerate_masks(word.n):
        got = const + sum(w * (mask & m).bit_count() for m, w in terms)
        assert type(got) is int
        assert Fraction(got, den) == stat.evaluate(NCPartition._raw(word.n, mask))


def assert_verdicts_follow_averages(report, averages):
    """Every verdict field equals the one read off exact Fraction averages."""
    assert report.averages == averages
    assert all(type(avg) is Fraction for avg in report.averages)
    differ = [i for i, avg in enumerate(averages) if avg != averages[0]]
    homomesic = not differ
    mean = averages[0] if homomesic and averages else None
    assert report.homomesic is homomesic
    assert report.mean == mean and type(report.mean) is type(mean)
    assert report.counterexample == (None if homomesic else (0, differ[0]))
    if report.precondition is not None:
        verdict = f"precondition unmet: {report.precondition}"
    elif homomesic:
        verdict = f"{mean}-mesic"
    else:
        j = differ[0]
        verdict = (
            f"not homomesic: orbit 0 averages {averages[0]}, "
            f"orbit {j} averages {averages[j]}"
        )
    assert report.verdict == verdict


@st.composite
def homomesic_cases(draw, max_n=7):
    """A partial Coxeter word containing every short arc, with a combination
    of alpha, beta and psi_k: homomesic by the paper's theorems, so the
    ``mean`` branch is exercised as often as the counterexample one."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    word = sample_qualifying_word(draw(st.randoms(use_true_random=False)), n)
    keys = [("alpha",), ("beta",)] + [("psi", k) for k in range(1, n)]
    stat = Statistic({})
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        stat = stat + draw(COEFFS) * Statistic({key: 1})
    return word, stat


@settings(max_examples=150, deadline=None)
@given(st.one_of(words_with_statistics(), homomesic_cases()))
@example((ToggleWord.from_text(3, "1,3 2,3 1,2"), Statistic.chi(1, 3)))
@example((ToggleWord.from_text(4, "3,4 1,2 2,3 1,4"), Statistic.alpha()))
def test_report_verdicts_match_fraction_oracle(case):
    word, stat = case
    report = check_homomesy(word, stat)
    assert_verdicts_follow_averages(
        report, tuple(orbit_average(stat, o) for o in orbits(word))
    )


#: The statistic "bit 0 of the state", as an integer linear form.
LOW_BIT = (1, 0, ((1, 1),))


def test_equal_averages_from_unequal_sums():
    # Orbit sizes 2 and 4 with sums 1 and 2: both average 1/2.
    # The orbits [1, 0] and [0, 1, 1, 0] hold 1 and 2 states with the low bit.
    report = homomesy_report("w", "X", [2, 4], [[1, 2]], [("x", LOW_BIT, None)])
    assert report.sums == (1, 2) and report.orbit_sizes == (2, 4)
    assert report.homomesic and report.counterexample is None
    assert report.mean == Fraction(1, 2) and report.verdict == "1/2-mesic"
    scaled = HomomesyReport("w", "x", "X", (2, 4), (3, 6), 3)
    assert scaled.homomesic and scaled.mean == Fraction(1, 2)


def test_unequal_averages_from_equal_sums():
    # Orbit sizes 2 and 4 with sums 2 and 2: they average 1 and 1/2.
    # The orbits [1, 1] and [1, 0, 0, 1] each hold 2 states with the low bit.
    report = homomesy_report("w", "X", [2, 4], [[2, 2]], [("x", LOW_BIT, None)])
    assert report.sums == (2, 2) and report.orbit_sizes == (2, 4)
    assert not report.homomesic and report.mean is None
    assert report.counterexample == (0, 1)
    assert report.verdict == "not homomesic: orbit 0 averages 1, orbit 1 averages 1/2"


def outcome(fn):
    """None if ``fn()`` returns, else the message of the ValueError it raises."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def statistics_with_any_index(draw, max_n=7):
    """A chi or psi whose indices may fall outside [n], plus a valid sum."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    index = st.integers(min_value=-1, max_value=n + 2)
    first = draw(
        st.one_of(
            st.builds(Statistic.chi, index, index), st.builds(Statistic.psi, index)
        )
    )
    return n, first + draw(statistics(n))


@settings(max_examples=200, deadline=None)
@given(statistics_with_any_index())
@example((4, Statistic.chi(1, 9)))
@example((4, Statistic.psi(4)))
@example((4, Statistic.chi(3, 2) + Statistic.psi(0)))
def test_out_of_range_index_raises_as_evaluate(case):
    n, stat = case
    want = outcome(lambda: stat.evaluate(NCPartition._raw(n, 0)))
    assert outcome(lambda: stat.compile(n)) == want
    assert outcome(lambda: check_homomesy(ToggleWord(n), stat)) == want


@pytest.mark.parametrize(
    "key",
    [
        ("gamma",),
        (),
        ("alpha", 1),
        ("beta", 1, 2),
        ("card", 3),
        ("chi", 1),
        ("chi", 1, 2, 3),
        ("psi",),
        ("psi", 1, 2),
    ],
)
def test_bad_statistic_key_fails_at_construction(key):
    for coeff in (1, 0):
        with pytest.raises(ValueError, match="unknown statistic key"):
            Statistic({key: coeff})


@st.composite
def graphs_with_words_and_u(draw, max_vertices=7, max_len=10):
    """A graph on at most ``max_vertices`` shuffled labels, a word that may
    repeat or miss vertices, and any vertex subset U (not necessarily one
    that makes the graph 2-cliquish: the averages are defined regardless)."""
    m = draw(st.integers(min_value=0, max_value=max_vertices))
    vertices = draw(st.permutations(range(m)))
    edges = [p for p in combinations(vertices, 2) if draw(st.booleans())]
    if not m:
        return vertices, edges, [], frozenset()
    word = draw(st.lists(st.sampled_from(vertices), max_size=max_len))
    return vertices, edges, word, frozenset(draw(st.sets(st.sampled_from(vertices))))


@settings(max_examples=150, deadline=None)
@given(graphs_with_words_and_u())
@example(([], [], [], frozenset()))
@example(([0], [], [0, 0], frozenset({0})))
@example(([2, 0, 1], [(2, 0), (0, 1)], [1, 0, 1, 2], frozenset({2, 1})))
@example((list(range(5)), list(combinations(range(5), 2)), [4, 3], frozenset(range(5))))
def test_graph_reports_match_bruteforce_averages(case):
    vertices, edges, word, u_set = case
    graph = SimpleGraph(vertices, edges)
    report = verify_cardinality_homomesy(
        graph, CliquishCertificate(u_set, {}, {}), word
    )
    orbit_list = brute.graph_orbits(vertices, edges, word)

    def averages(f):
        return tuple(Fraction(sum(map(f, orbit)), len(orbit)) for orbit in orbit_list)

    assert report.orbit_sizes == tuple(map(len, orbit_list))
    assert report.statistic == "card"
    assert_verdicts_follow_averages(report, averages(len))
    us = sorted(u_set, key=str)
    assert [sub.statistic for sub in report.sub_reports] == [f"psi:{u}" for u in us]
    for u, sub in zip(us, report.sub_reports):
        assert sub.orbit_sizes == report.orbit_sizes
        assert_verdicts_follow_averages(
            sub, averages(lambda state: brute.psi_v(edges, state, u))
        )
