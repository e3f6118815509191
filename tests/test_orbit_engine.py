"""The swap-list orbit engine against the one-state-at-a-time stepper."""

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles.dynamics import orbit_masks
from nctoggles.ncpartition import (
    EnumerationLimitError,
    NCPartition,
    _enum_masks_cached,
    arc_index,
    arc_slots,
    enumerate_masks,
)
from nctoggles.toggles import _pair_tables, toggle_pairs
from nctoggles.words import ToggleWord, kreweras_word, row_word


def stepper_orbits(word):
    """Orbits by chasing ``word.stepper()``: each state not yet seen, in
    enumeration order, starts an orbit listed in the direction of the word."""
    step = word.stepper()
    seen = set()
    out = []
    for start in enumerate_masks(word.n):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = step(start)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = step(cur)
        out.append(orbit)
    return out


@st.composite
def toggle_words(draw, max_n=7, max_len=12):
    """Words on [n] for n <= max_n; arcs may repeat, so most are not partial
    Coxeter."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    arcs = brute.all_arcs(n)
    if not arcs:
        return ToggleWord(n)
    return ToggleWord(n, draw(st.lists(st.sampled_from(arcs), max_size=max_len)))


@settings(max_examples=150, deadline=None)
@given(toggle_words())
@example(ToggleWord(0))
@example(ToggleWord(1))
@example(ToggleWord(5))
@example(ToggleWord(6, [(2, 5)]))
@example(ToggleWord(4, [(1, 2), (1, 2), (2, 3)]))
@example(ToggleWord(7, [(1, 7), (3, 5), (1, 7), (2, 6), (3, 5)]))
def test_orbit_masks_match_stepper_chase(word):
    assert orbit_masks(word) == stepper_orbits(word)


def test_toggle_pairs_match_bruteforce_toggle():
    for n in range(6):
        states = enumerate_masks(n)
        as_arcs = [frozenset(NCPartition._raw(n, m).arcs()) for m in states]
        arcs = brute.all_arcs(n)
        tables = toggle_pairs(n, [arc_index(n, a) for a in arcs])
        assert sorted(tables) == sorted(arc_index(n, a) for a in arcs)
        for arc in arcs:
            pairs = tables[arc_index(n, arc)]
            partner = {}
            for i, j in zip(pairs[::2], pairs[1::2]):
                assert arc in as_arcs[i] and as_arcs[j] == as_arcs[i] - {arc}
                partner[i], partner[j] = j, i
            assert len(partner) == len(pairs)
            for idx, arcset in enumerate(as_arcs):
                assert as_arcs[partner.get(idx, idx)] == brute.toggle(arcset, arc)


def test_toggle_pairs_cover_only_requested_slots():
    tables = toggle_pairs(5, [arc_index(5, (2, 4)), arc_index(5, (2, 4))])
    assert list(tables) == [arc_index(5, (2, 4))]
    assert toggle_pairs(5, []) == {}


def test_tables_built_in_steps_equal_a_fresh_build():
    for n in (4, 6, 7):
        every = list(range(arc_slots(n)))
        _pair_tables.cache_clear()
        subset = toggle_pairs(n, every[::3])
        superset = toggle_pairs(n, every[::3] + every[1::3])
        stepwise = toggle_pairs(n, every)
        repeat = toggle_pairs(n, every)
        assert all(superset[k] is subset[k] for k in subset)
        assert all(stepwise[k] is superset[k] for k in superset)
        assert all(repeat[k] is stepwise[k] for k in every)
        _pair_tables.cache_clear()
        fresh = toggle_pairs(n, every)
        assert sorted(stepwise) == sorted(fresh) == every
        for k in every:
            assert stepwise[k] is not fresh[k] and stepwise[k] == fresh[k]


def test_orbit_masks_survive_an_enumeration_cache_clear():
    for word in (row_word(6), kreweras_word(7), ToggleWord(7, [(2, 5), (1, 7), (2, 3)])):
        toggle_pairs(word.n, range(arc_slots(word.n)))
        _enum_masks_cached.cache_clear()
        assert orbit_masks(word) == stepper_orbits(word)


def test_toggle_pairs_ceiling_fails_before_caching():
    before = _pair_tables.cache_info()
    with pytest.raises(EnumerationLimitError):
        toggle_pairs(13, [0], limit=12)
    assert _pair_tables.cache_info() == before
