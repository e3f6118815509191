import random
from collections import Counter
from fractions import Fraction

import pytest

import brute
from nctoggles import core, dynamics, indsets
from nctoggles.core import orbit_partition
from nctoggles.dynamics import (
    Statistic,
    check_homomesy,
    chi_sum_conjugation_check,
    even_orbits_check,
    orbit_average,
    orbits,
    parse_statistic,
    verify_arc_count_theorem,
)
from nctoggles.ncpartition import NCPartition, arc_slots, catalan, enumerate_masks, enumerate_nc
from nctoggles.verify import NC6_COXETER_TEXT, sample_coxeter_word, sample_qualifying_word
from nctoggles.words import ToggleWord, admissible_conjugate, apply_word, row_word, sources
from test_orbit_engine import needs_numpy

SAMPLE4 = ToggleWord.from_text(4, "3,4 1,2 2,3 1,4")
NEGATIVE3 = ToggleWord.from_text(3, "1,3 2,3 1,2")


def test_orbit_partition_generic():
    states = list(range(6))
    step = lambda x: (x + 2) % 6
    result = orbit_partition(states, step)
    assert result == [[0, 2, 4], [1, 3, 5]]


def test_orbits_partition_the_whole_space():
    for word in (SAMPLE4, NEGATIVE3, ToggleWord.from_text(5, "2,3 4,5 1,2 3,4")):
        orbit_list = orbits(word)
        seen = [p for o in orbit_list for p in o.elements]
        assert len(seen) == len(set(seen)) == catalan(word.n)


def test_orbits_are_closed_and_cyclic():
    for orbit in orbits(SAMPLE4):
        elements = orbit.elements
        for idx, p in enumerate(elements):
            assert apply_word(SAMPLE4, p) == elements[(idx + 1) % len(elements)]


def test_orbits_start_at_least_element():
    listing = enumerate_nc(4)
    position = {p: i for i, p in enumerate(listing)}
    for orbit in orbits(SAMPLE4):
        head = position[orbit.elements[0]]
        assert head == min(position[p] for p in orbit.elements)


def test_sample_word_orbits_match_bruteforce():
    ours = {frozenset(frozenset(p.arcs()) for p in o.elements) for o in orbits(SAMPLE4)}
    theirs = brute.orbits(4, SAMPLE4.composition_order())
    assert ours == theirs


def test_sample_word_orbit_sizes():
    sizes = sorted(o.size for o in orbits(SAMPLE4))
    assert sizes == [2, 2, 2, 2, 6]


def test_nc6_coxeter_orbit_sizes():
    word = ToggleWord.from_text(6, NC6_COXETER_TEXT)
    assert sorted(o.size for o in orbits(word)) == [4, 22, 46, 60]


@pytest.mark.parametrize(
    "arcs,expected",
    [([(2, 3)], 2), ([(1, 3)], 1), ([], 0)],
)
def test_psi_2_cases(arcs, expected):
    p = NCPartition(4, arcs)
    assert Statistic.psi(2).evaluate(p) == expected


def test_psi_three_case_characterization():
    for n in range(2, 7):
        for p in enumerate_nc(n):
            for k in range(1, n):
                value = Statistic.psi(k).evaluate(p)
                arcs = p.arcs()
                touching = [
                    a for a in arcs if a[1] == k + 1 or a[0] == k
                ]
                if value == 0:
                    assert not touching
                elif value == 2:
                    assert (k, k + 1) in arcs
                else:
                    assert value == 1
                    assert len(touching) == 1 and touching[0] != (k, k + 1)


def test_alpha_is_half_sum_of_psi():
    for n in range(2, 7):
        half_sum = Fraction(1, 2) * sum(
            (Statistic.psi(k) for k in range(1, n)), Statistic({})
        )
        for p in enumerate_nc(n):
            assert half_sum.evaluate(p) == p.arc_count


def test_statistic_algebra_and_labels():
    stat = 2 * Statistic.chi(1, 3) + Statistic.alpha()
    p = NCPartition(4, [(1, 3)])
    assert stat.evaluate(p) == 3
    assert (Statistic.alpha() - Statistic.alpha()).terms == ()
    assert Statistic.alpha().label() == "alpha"
    assert Statistic.chi(1, 3).label() == "chi:1,3"
    assert (Fraction(1, 2) * Statistic.psi(2)).label() == "1/2*psi:2"
    assert Statistic.beta().evaluate(p) == 3
    assert Statistic.card().evaluate(p) == 1


def test_statistic_range_errors():
    with pytest.raises(ValueError):
        Statistic.chi(1, 9).evaluate(NCPartition(4))
    with pytest.raises(ValueError):
        Statistic.psi(4).evaluate(NCPartition(4))


@pytest.mark.parametrize(
    "spec,label",
    [
        ("alpha", "alpha"),
        ("beta", "beta"),
        ("card", "card"),
        ("chi:1,3", "chi:1,3"),
        ("psi:2", "psi:2"),
    ],
)
def test_parse_statistic(spec, label):
    assert parse_statistic(spec).label() == label


def test_parse_statistic_errors():
    for bad in ("gamma", "chi:1", "psi:x", "chi:0,0,1"):
        with pytest.raises(ValueError):
            parse_statistic(bad)


def test_orbit_average_examples():
    orbit_list = orbits(SAMPLE4)
    alpha = Statistic.alpha()
    big = next(o for o in orbit_list if o.size == 6)
    assert orbit_average(alpha, big) == Fraction(3, 2)
    for orbit in orbit_list:
        assert orbit_average(Statistic.beta(), orbit) == Fraction(5, 2)

    two = ToggleWord.from_text(2, "1,2")
    (orbit,) = orbits(two)
    assert orbit.size == 2
    assert orbit_average(alpha, orbit) == Fraction(1, 2)


def test_check_homomesy_positive():
    report = check_homomesy(SAMPLE4, Statistic.alpha())
    assert report.homomesic and report.mean == Fraction(3, 2)
    assert report.verdict == "3/2-mesic"
    assert report.holds


def test_check_homomesy_negative_control():
    report = check_homomesy(NEGATIVE3, Statistic.chi(1, 3))
    assert not report.homomesic
    assert len(report.orbit_sizes) == 2
    assert sorted(report.orbit_sizes) == [2, 3]
    assert report.counterexample is not None
    averages = sorted(report.averages)
    assert averages == [Fraction(0), Fraction(1, 3)]
    assert "not homomesic" in report.verdict


def test_psi_homomesy_for_qualifying_words():
    rng = random.Random(99)
    for n in range(3, 7):
        for _ in range(10):
            word = sample_qualifying_word(rng, n)
            for k in range(1, n):
                report = check_homomesy(word, Statistic.psi(k))
                assert report.homomesic and report.mean == 1


def test_verify_arc_count_theorem_holds():
    report = verify_arc_count_theorem(SAMPLE4)
    assert report.holds and report.mean == Fraction(3, 2)
    beta = report.sub_reports[0]
    assert beta.holds and beta.mean == Fraction(5, 2)


def test_verify_arc_count_theorem_coxeter_n7():
    from nctoggles.words import row_word

    report = verify_arc_count_theorem(row_word(7))
    assert report.holds and report.mean == Fraction(3)


def test_verify_arc_count_theorem_precondition():
    word = ToggleWord.from_text(3, "2,3 1,3")
    report = verify_arc_count_theorem(word)
    assert report.precondition is not None
    assert "(1, 2)" in report.precondition
    assert not report.holds
    assert "precondition unmet" in report.verdict
    # averages are still present for inspection
    assert len(report.averages) == len(report.orbit_sizes) > 0


def test_verify_arc_count_theorem_flags_repeats():
    word = ToggleWord(3, [(1, 2), (2, 3), (1, 2)])
    report = verify_arc_count_theorem(word)
    assert report.precondition is not None and "repeats" in report.precondition


def test_even_orbits_check():
    ok, witness = even_orbits_check(SAMPLE4)
    assert ok and witness is None
    two = ToggleWord.from_text(2, "1,2")
    ok, witness = even_orbits_check(two)
    assert ok
    with pytest.raises(ValueError):
        even_orbits_check(NEGATIVE3)  # n odd


def test_pointwise_arc_sum_fails_but_average_holds():
    # unlike Kreweras complementation there is no pointwise complement rule:
    # some partition has alpha(P) + alpha(w(P)) != n - 1
    values = {
        p.arc_count + apply_word(SAMPLE4, p).arc_count for p in enumerate_nc(4)
    }
    assert values != {3}


def test_chi_sum_conjugation_column3():
    assert chi_sum_conjugation_check(ToggleWord.from_text(3, "2,3 1,3 1,2"), (1, 2))


def test_chi_sum_conjugation_full_source_sequence_n4():
    word = ToggleWord.from_text(4, "3,4 2,4 1,4 2,3 1,3 1,2")
    current = word
    for _ in range(3):
        source = sorted(sources(current))[0]
        assert chi_sum_conjugation_check(current, source)
        current = admissible_conjugate(current, source)


def _oracle_verdict(word, conjugate, source):
    """The conjugation verdict of both words' orbits, listed by steppers and
    matched by their members."""
    states = enumerate_masks(word.n)
    return brute.conjugation_keeps_chi_sums(
        orbit_partition(states, word.stepper()),
        orbit_partition(states, conjugate.stepper()),
        ToggleWord(word.n, [source]).stepper(),
        range(arc_slots(word.n)),
    )


@pytest.mark.parametrize("wrong", [None, lambda word: word, ToggleWord.inverse])
def test_chi_sum_conjugation_check_matches_the_orbit_matching_oracle(monkeypatch, wrong):
    # Every source of seeded Coxeter and qualifying words, with the true
    # conjugate and with the word itself or its inverse in its place.  The
    # check asks the toggle at the source to commute the two words state by
    # state, which is stronger than the oracle's matching of orbits as sets:
    # a wrong conjugate may pass the oracle, but nothing the oracle rejects
    # may pass the check.
    if wrong is not None:
        monkeypatch.setattr(dynamics, "admissible_conjugate", lambda word, arc: wrong(word))
    rng, verdicts = random.Random(25), Counter()
    for n in range(2, 8):
        for _ in range(10):
            for word in (sample_coxeter_word(rng, n), sample_qualifying_word(rng, n)):
                for source in sorted(sources(word)):
                    conjugate = dynamics.admissible_conjugate(word, source)
                    verdict = chi_sum_conjugation_check(word, source)
                    oracle = _oracle_verdict(word, conjugate, source)
                    assert verdict == oracle if wrong is None else verdict <= oracle
                    verdicts[verdict, oracle] += 1
    # Every true conjugate passes; both reject some wrong ones.
    assert set(verdicts) == {(True, True)} if wrong is None else verdicts[False, False]


@needs_numpy
def test_chi_sum_conjugation_check_matches_the_oracle_on_the_numpy_engine():
    word = sample_coxeter_word(random.Random(25), 11)
    assert core.vectorized(catalan(11), arc_slots(11))
    source = min(sources(word))
    conjugate = admissible_conjugate(word, source)
    assert chi_sum_conjugation_check(word, source) == _oracle_verdict(word, conjugate, source)


@pytest.mark.parametrize("wrong", [lambda word: word, ToggleWord.inverse])
def test_chi_sum_conjugation_fails_on_a_wrong_conjugate(monkeypatch, wrong):
    # The toggle at the source does not carry the word's orbits onto the
    # orbits of the word itself, nor of its inverse.
    monkeypatch.setattr(dynamics, "admissible_conjugate", lambda word, arc: wrong(word))
    for text, n in (("2,3 1,3 1,2", 3), ("3,4 2,4 1,4 2,3 1,3 1,2", 4)):
        assert not chi_sum_conjugation_check(ToggleWord.from_text(n, text), (1, 2))


def test_chi_sum_conjugation_rejects_non_source():
    with pytest.raises(ValueError):
        chi_sum_conjugation_check(ToggleWord.from_text(3, "2,3 1,3 1,2"), (2, 3))


def test_report_json_and_table():
    report = check_homomesy(SAMPLE4, Statistic.alpha())
    obj = report.to_json_dict()
    assert obj["word"] == "3,4 1,2 2,3 1,4"
    assert obj["statistic"] == "alpha"
    assert obj["verdict"] == "3/2-mesic"
    assert {"size": 6, "average": "3/2"} in obj["orbits"]
    table = report.to_text_table()
    assert "verdict: 3/2-mesic" in table
    assert "orbit" in table and "average" in table


def test_precondition_report_serializes():
    report = verify_arc_count_theorem(ToggleWord.from_text(3, "2,3 1,3"))
    obj = report.to_json_dict()
    assert "precondition" in obj
    assert obj["sub_reports"][0]["statistic"] == "beta"


def test_arc_count_reports_equal_the_compiled_statistics():
    # verify_arc_count_theorem writes the forms of alpha and beta by hand.
    rng = random.Random(12)
    for n in range(1, 9):
        arcs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        word = ToggleWord(n, rng.sample(arcs, k=rng.randint(0, len(arcs))))
        report = verify_arc_count_theorem(word)
        for got, stat in zip((report, *report.sub_reports), (Statistic.alpha(), Statistic.beta())):
            want = check_homomesy(word, stat)
            assert (got.orbit_sizes, got.sums, got.den) == (want.orbit_sizes, want.sums, want.den)


def test_theorem_checks_decompose_through_the_module_attributes(monkeypatch):
    # A harness that times and counts orbit decompositions rebinds module
    # attributes, so each check must reach its orbits through one of them,
    # once: the reports read orbit sizes and sums, and list no orbit.
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(dynamics, "orbit_sums")
    count(indsets, "word_orbit_sums")
    for check in (
        lambda: check_homomesy(SAMPLE4, Statistic.alpha()),
        lambda: verify_arc_count_theorem(SAMPLE4),
        lambda: even_orbits_check(SAMPLE4),
    ):
        calls.clear()
        check()
        assert calls == {"orbit_sums": 1}
    graph, u_set = indsets.complete_minus_edge(4)
    cert = indsets.check_cliquish_with(graph, u_set)
    calls.clear()
    assert indsets.verify_cardinality_homomesy(graph, cert, [1, 2, 3, 4]).holds
    assert calls == {"word_orbit_sums": 1}
