import random

import pytest
from hypothesis import given, settings, strategies as st

import brute
from nctoggles.ncpartition import NCPartition, enumerate_nc
from nctoggles.toggles import commutes, toggle
from nctoggles.words import (
    ToggleWord,
    WordParseError,
    admissible_conjugate,
    apply_word,
    column_word,
    functionally_equal,
    is_partial_coxeter,
    kreweras_word,
    orientation_of,
    row_word,
    sinks,
    sources,
)

SAMPLE4 = ToggleWord.from_text(4, "3,4 1,2 2,3 1,4")
COLUMN3 = ToggleWord.from_text(3, "2,3 1,3 1,2")


def test_parse_stores_application_order():
    assert SAMPLE4.arcs == ((1, 4), (2, 3), (1, 2), (3, 4))
    assert SAMPLE4.composition_order() == ((3, 4), (1, 2), (2, 3), (1, 4))
    assert SAMPLE4.to_text() == "3,4 1,2 2,3 1,4"
    assert SAMPLE4.to_text(application_order=True) == "1,4 2,3 1,2 3,4"


def test_parse_errors_cite_token_and_position():
    with pytest.raises(WordParseError) as err:
        ToggleWord.from_text(4, "1,2 oops 3,4")
    assert err.value.token == "oops"
    assert err.value.position == 1
    with pytest.raises(WordParseError):
        ToggleWord.from_text(4, "1,5")
    with pytest.raises(WordParseError):
        ToggleWord.from_text(4, "2,1")


def test_json_roundtrip():
    obj = SAMPLE4.to_json_dict()
    assert obj == {"n": 4, "composition_order": [[3, 4], [1, 2], [2, 3], [1, 4]]}


@pytest.mark.parametrize("arc", [(1, 2, 3), (1.0, 3.0), (1,), ("1", "2"), (2, 1), (0, 4)])
def test_a_bad_arc_is_rejected_at_construction(arc):
    with pytest.raises(ValueError, match="out of range for n=4"):
        ToggleWord(4, [(1, 2), arc])


def test_apply_word_on_empty():
    result = apply_word(SAMPLE4, NCPartition.empty(4))
    assert result.arcs() == ((1, 4), (2, 3))


def test_apply_single_toggle_word():
    w = ToggleWord.from_text(3, "1,2")
    assert apply_word(w, NCPartition.empty(3)).arcs() == ((1, 2),)


def test_apply_word_requires_matching_n():
    with pytest.raises(ValueError):
        apply_word(SAMPLE4, NCPartition.empty(5))


def test_apply_word_matches_bruteforce():
    rng = random.Random(7)
    for n in range(2, 6):
        arcs = brute.all_arcs(n)
        for _ in range(25):
            comp = [rng.choice(arcs) for _ in range(rng.randrange(0, 8))]
            word = ToggleWord.from_composition_order(n, comp)
            for state in brute.all_partitions(n):
                ours = apply_word(word, NCPartition(n, sorted(state)))
                assert frozenset(ours.arcs()) == brute.apply_composition(state, comp)


def test_word_is_bijective_on_ncn():
    images = {apply_word(SAMPLE4, p) for p in enumerate_nc(4)}
    assert len(images) == 14


def test_partial_and_full_coxeter_predicates():
    assert is_partial_coxeter(SAMPLE4)
    assert {(1, 3), (2, 4)} & SAMPLE4.support() == set()
    assert is_partial_coxeter(row_word(4))
    repeated = ToggleWord(3, [(1, 2), (1, 2)])
    assert not is_partial_coxeter(repeated)


def test_orientation_of_column_word():
    orientation = orientation_of(COLUMN3)
    assert orientation.support == {(1, 2), (1, 3), (2, 3)}
    assert orientation.sources() == {(1, 2)}
    assert orientation.sinks() == {(2, 3)}
    assert ((1, 2), (1, 3)) in orientation.edges


def test_orientation_single_toggle():
    orientation = orientation_of(ToggleWord(5, [(2, 4)]))
    assert orientation.support == {(2, 4)}
    assert orientation.edges == frozenset()
    assert orientation.sources() == orientation.sinks() == {(2, 4)}


def test_orientation_rejects_repeats():
    with pytest.raises(ValueError):
        orientation_of(ToggleWord(3, [(1, 2), (1, 2)]))


def test_row_and_column_words_share_orientation():
    assert orientation_of(row_word(4)) == orientation_of(column_word(4))


def test_sources_sinks_of_commuting_word():
    word = ToggleWord(6, [(1, 2), (3, 4), (5, 6)])
    assert sources(word) == sinks(word) == {(1, 2), (3, 4), (5, 6)}
    empty = ToggleWord(4, [])
    assert sources(empty) == sinks(empty) == frozenset()


def test_functionally_equal_row_column():
    for n in range(2, 6):
        assert functionally_equal(row_word(n), column_word(n))


def test_functionally_unequal_noncommuting():
    w1 = ToggleWord.from_text(3, "1,2 1,3")
    w2 = ToggleWord.from_text(3, "1,3 1,2")
    assert not functionally_equal(w1, w2)
    with pytest.raises(ValueError):
        functionally_equal(w1, ToggleWord(4, []))


@settings(max_examples=40)
@given(st.data())
def test_commuting_swap_preserves_function(data):
    n = data.draw(st.integers(min_value=3, max_value=5))
    arcs = brute.all_arcs(n)
    word = data.draw(st.permutations(arcs))
    word = list(word)[: data.draw(st.integers(min_value=2, max_value=len(arcs)))]
    pos = data.draw(st.integers(min_value=0, max_value=len(word) - 2))
    if commutes(word[pos], word[pos + 1]):
        swapped = list(word)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        assert functionally_equal(ToggleWord(n, word), ToggleWord(n, swapped))


def test_admissible_conjugate_example():
    conjugated = admissible_conjugate(COLUMN3, (1, 2))
    assert conjugated.to_text() == "1,2 2,3 1,3"


def test_admissible_conjugate_requires_source():
    with pytest.raises(ValueError):
        admissible_conjugate(COLUMN3, (2, 3))  # the sink


def test_admissible_conjugate_single_toggle():
    word = ToggleWord(4, [(1, 3)])
    assert admissible_conjugate(word, (1, 3)) == word


def test_admissible_conjugate_realizes_conjugation():
    # a . w . a must agree with the normalized word on every partition
    rng = random.Random(11)
    from nctoggles.verify import sample_coxeter_word

    for n in range(3, 6):
        for _ in range(10):
            word = sample_coxeter_word(rng, n)
            for source in sources(word):
                conjugated = admissible_conjugate(word, source)
                assert is_partial_coxeter(conjugated)
                assert conjugated.support() == word.support()
                for p in enumerate_nc(n):
                    direct = toggle(apply_word(word, toggle(p, source)), source)
                    assert apply_word(conjugated, p) == direct


def test_conjugation_turns_source_into_sink():
    rng = random.Random(13)
    from nctoggles.verify import sample_qualifying_word

    for n in range(3, 6):
        for _ in range(10):
            word = sample_qualifying_word(rng, n)
            for source in sources(word):
                conjugated = admissible_conjugate(word, source)
                expected = brute.flip_source(orientation_of(word), source)
                assert orientation_of(conjugated) == expected
                assert source in sinks(conjugated)


def test_double_conjugation_is_two_step_shift():
    word = COLUMN3
    first = admissible_conjugate(word, (1, 2))
    second_source = sorted(sources(first))[0]
    second = admissible_conjugate(first, second_source)
    # conjugating by a then b equals conjugating by the word ab directly
    for p in enumerate_nc(3):
        direct = toggle(
            toggle(apply_word(word, toggle(toggle(p, second_source), (1, 2))), (1, 2)),
            second_source,
        )
        assert apply_word(second, p) == direct


def test_named_word_sequences():
    assert row_word(2) == column_word(2) == ToggleWord(2, [(1, 2)])
    assert row_word(4).to_text() == "3,4 2,4 2,3 1,4 1,3 1,2"
    assert column_word(4).to_text() == "3,4 2,4 1,4 2,3 1,3 1,2"
    assert kreweras_word(3).to_text() == "1,2 1,3 2,3"
    assert kreweras_word(4) == row_word(4).inverse()
    with pytest.raises(ValueError):
        row_word(1)
    with pytest.raises(ValueError):
        column_word(1)


def test_every_full_pass_removes_each_arc():
    # any order of all toggles sends a partition containing (i, j) to one
    # without it
    rng = random.Random(5)
    for n in range(2, 6):
        arcs = brute.all_arcs(n)
        for _ in range(20):
            order = arcs[:]
            rng.shuffle(order)
            word = ToggleWord(n, order)
            for p in enumerate_nc(n):
                image = apply_word(word, p)
                for arc in p.arcs():
                    assert arc not in image.arcs()


def _random_linear_extension(rng, orientation):
    remaining = set(orientation.support)
    before = {v: set() for v in remaining}
    for a, b in orientation.edges:
        before[b].add(a)
    order = []
    while remaining:
        ready = sorted(v for v in remaining if not before[v] & remaining)
        pick = rng.choice(ready)
        order.append(pick)
        remaining.remove(pick)
    return order


def test_linear_extensions_of_same_orientation_agree():
    rng = random.Random(23)
    from nctoggles.verify import sample_coxeter_word

    for n in range(3, 6):
        for _ in range(8):
            word = sample_coxeter_word(rng, n)
            orientation = orientation_of(word)
            other = ToggleWord(n, _random_linear_extension(rng, orientation))
            assert orientation_of(other) == orientation
            assert functionally_equal(word, other)


def test_toric_equivalence_reachability():
    orientation = orientation_of(COLUMN3)
    flipped = brute.flip_source(orientation, (1, 2))
    assert brute.torically_equivalent(orientation, flipped)
    assert brute.torically_equivalent(orientation, orientation)
    other_support = orientation_of(ToggleWord(3, [(1, 2), (1, 3)]))
    assert not brute.torically_equivalent(orientation, other_support)


def test_flip_source_requires_source():
    orientation = orientation_of(COLUMN3)
    with pytest.raises(ValueError):
        brute.flip_source(orientation, (2, 3))


def test_word_equality_and_repr():
    assert SAMPLE4 == ToggleWord.from_composition_order(
        4, [(3, 4), (1, 2), (2, 3), (1, 4)]
    )
    assert SAMPLE4 != COLUMN3
    assert "3,4 1,2 2,3 1,4" in repr(SAMPLE4)
    with pytest.raises(AttributeError):
        SAMPLE4.n = 5
