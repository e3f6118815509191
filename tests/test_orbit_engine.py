"""The swap-list orbit engine against the one-state-at-a-time stepper."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from nctoggles import cli, ncpartition
from nctoggles.dynamics import Statistic, check_homomesy, orbit_masks
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
        tables = toggle_pairs(n, [arc_index(n, a) for a in arcs], states)
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
    states, slot = enumerate_masks(5), arc_index(5, (2, 4))
    assert list(toggle_pairs(5, [slot, slot], states)) == [slot]
    assert toggle_pairs(5, [], states) == {}


def test_tables_built_in_steps_equal_a_fresh_build():
    for n in (4, 6, 7):
        every, states = list(range(arc_slots(n))), enumerate_masks(n)
        _pair_tables.cache_clear()
        subset = toggle_pairs(n, every[::3], states)
        superset = toggle_pairs(n, every[::3] + every[1::3], states)
        stepwise = toggle_pairs(n, every, states)
        repeat = toggle_pairs(n, every, states)
        assert all(superset[k] is subset[k] for k in subset)
        assert all(stepwise[k] is superset[k] for k in superset)
        assert all(repeat[k] is stepwise[k] for k in every)
        _pair_tables.cache_clear()
        fresh = toggle_pairs(n, every, states)
        assert sorted(stepwise) == sorted(fresh) == every
        for k in every:
            assert stepwise[k] is not fresh[k] and stepwise[k] == fresh[k]


def test_orbit_masks_survive_an_enumeration_cache_clear():
    for word in (row_word(6), kreweras_word(7), ToggleWord(7, [(2, 5), (1, 7), (2, 3)])):
        toggle_pairs(word.n, range(arc_slots(word.n)), enumerate_masks(word.n))
        _enum_masks_cached.cache_clear()
        assert orbit_masks(word) == stepper_orbits(word)


def test_toggle_pairs_ceiling_fails_before_caching():
    before = _pair_tables.cache_info()
    with pytest.raises(EnumerationLimitError):
        orbit_masks(row_word(13), limit=12)
    assert _pair_tables.cache_info() == before


def test_an_explicit_ceiling_reaches_the_whole_decomposition(monkeypatch, capsys):
    # The ceiling is checked once, by orbit_masks; nothing below it may
    # enumerate again under the default.
    monkeypatch.setattr(ncpartition, "DEFAULT_ENUM_LIMIT", 5)
    word = row_word(6)
    with pytest.raises(EnumerationLimitError):
        orbit_masks(word)
    assert sum(map(len, orbit_masks(word, limit=6))) == 132
    assert check_homomesy(word, Statistic.alpha(), limit=6).mean == Fraction(5, 2)
    argv = ["orbits", "6", "--max-n", "6", "--sizes-only", "--word", word.to_text()]
    assert cli.main(argv) == 0
    assert sum(map(int, capsys.readouterr().out.split())) == 132
