import random
from fractions import Fraction
from functools import lru_cache
from types import ModuleType

import pytest
from hypothesis import given, strategies as st

import brute
from nctoggles.core import independent_sets, orbit_partition
from nctoggles.kreweras import (
    _violation_masks,
    circular_text,
    eta,
    kreweras,
    kreweras_oracle,
    kreweras_power,
    kreweras_prime,
    kreweras_prime_oracle,
    relabel,
    rotate,
    simion_ullman,
)
from nctoggles.ncpartition import (
    BlockPartition,
    EnumerationLimitError,
    InvalidPartitionError,
    NCPartition,
    arc_index,
    enumerate_nc,
)
from nctoggles.words import apply_word, kreweras_word, row_word

PI8 = NCPartition(8, [(2, 4), (4, 5), (6, 8)])


def test_worked_example_n8():
    image = kreweras(PI8)
    assert image.arcs() == ((1, 5), (2, 3), (5, 8), (6, 7))
    assert PI8.block_count + image.block_count == 9


def test_complement_of_empty_is_single_block():
    for n in range(2, 7):
        image = kreweras(NCPartition.empty(n))
        assert image.block_count == 1
        assert image.arcs() == tuple((i, i + 1) for i in range(1, n))


def test_complement_of_single_block_is_empty():
    chain = NCPartition(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert kreweras(chain).arcs() == ()


def test_oracle_matches_word_route():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            assert kreweras(p) == kreweras_oracle(p)


def test_oracles_match_the_frozenset_brute_force():
    for n in range(7):
        for p in enumerate_nc(n):
            arcs = frozenset(p.arcs())
            assert frozenset(kreweras_oracle(p).arcs()) == (
                brute.kreweras_complement(n, arcs)
            )
            assert frozenset(kreweras_prime_oracle(p).arcs()) == (
                brute.kreweras_complement(n, arcs, primes_clockwise=False)
            )


@lru_cache(maxsize=None)
def full_scan_table(n, primes_clockwise):
    """Every sigma in NC(n) with the arc slots of [2n] that its primed arcs
    forbid: the candidate table of the first oracle, which scanned it all."""
    prime = (lambda i: 2 * i) if primes_clockwise else (lambda i: 2 * i - 1)
    table2n = _violation_masks(2 * n)
    entries = []
    for sigma in independent_sets(_violation_masks(n)):
        forbidden = 0
        for i, j in NCPartition._raw(n, sigma).arcs():
            forbidden |= table2n[arc_index(2 * n, (prime(i), prime(j)))]
        entries.append((sigma, forbidden))
    return entries


def full_scan_oracle(p, primes_clockwise):
    n = p.n
    plain = (lambda i: 2 * i - 1) if primes_clockwise else (lambda i: 2 * i)
    mapped = sum(1 << arc_index(2 * n, (plain(i), plain(j))) for i, j in p.arcs())
    valid = [
        sigma
        for sigma, forbidden in full_scan_table(n, primes_clockwise)
        if not mapped & forbidden
    ]
    most = max(sigma.bit_count() for sigma in valid)
    (coarsest,) = [sigma for sigma in valid if sigma.bit_count() == most]
    return NCPartition._raw(n, coarsest)


def test_oracles_match_the_full_candidate_scan():
    for n in range(2, 9):
        for p in enumerate_nc(n):
            assert kreweras_oracle(p) == full_scan_oracle(p, True)
            assert kreweras_prime_oracle(p) == full_scan_oracle(p, False)


def test_cached_stepper_matches_the_word():
    for n in range(2, 8):
        word = kreweras_word(n)
        for p in enumerate_nc(n):
            assert kreweras(p) == apply_word(word, p)


def test_prime_three_routes_agree():
    for n in range(2, 7):
        word = row_word(n)
        for p in enumerate_nc(n):
            prime = kreweras_prime(p)
            assert prime == kreweras_prime_oracle(p)
            assert prime == apply_word(word, p)


def test_prime_is_inverse_of_complement():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert kreweras_prime(kreweras(p)) == p
            assert kreweras(kreweras_prime(p)) == p


def test_double_complement_is_rotation():
    assert kreweras(kreweras(PI8)).arcs() == ((1, 3), (3, 4), (5, 7))
    assert rotate(PI8, 1).arcs() == ((1, 3), (3, 4), (5, 7))
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert kreweras(kreweras(p)) == rotate(p, 1)


def test_rotation_basics():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert rotate(p, n) == p
            assert rotate(rotate(p, 1), n - 1) == p
    assert rotate(NCPartition(0)) == NCPartition(0)


def test_rotation_wraps_blocks():
    p = NCPartition(3, [(1, 2)])
    rotated = rotate(p, 1)  # block {1,2} becomes {3,1}
    assert rotated.blocks() == ((1, 3), (2,))


def test_complement_order_divides_2n():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert kreweras_power(p, 2 * n) == p


def test_kreweras_power_negative():
    for p in enumerate_nc(5):
        assert kreweras_power(p, -1) == kreweras_prime(p)
        assert kreweras_power(kreweras_power(p, 3), -3) == p


def test_block_count_sum():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            assert p.block_count + kreweras(p).block_count == n + 1


def test_eta_swaps_labels():
    assert eta(NCPartition(3, [(1, 2)])).arcs() == ((1, 2),)
    assert eta(NCPartition(4, [(1, 2)])).arcs() == ((2, 3),)
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert eta(eta(p)) == p


def test_simion_ullman_is_involution_with_block_sum():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            image = simion_ullman(p)
            assert simion_ullman(image) == p
            assert p.block_count + image.block_count == n + 1


@pytest.mark.parametrize("mapping", [kreweras, simion_ullman])
def test_block_count_orbit_average(mapping):
    # both actions average beta to (n+1)/2 on every orbit
    for n in range(2, 7):
        for orbit in orbit_partition(enumerate_nc(n), mapping):
            total = sum(p.block_count for p in orbit)
            assert Fraction(total, len(orbit)) == Fraction(n + 1, 2)


def test_n2_worked_example():
    empty = NCPartition.empty(2)
    assert kreweras(empty).arcs() == ((1, 2),)
    assert kreweras_prime(empty).arcs() == ((1, 2),)


def test_relabel_requires_bijection():
    with pytest.raises(ValueError):
        relabel(NCPartition(3), lambda i: 1)


def block_route_relabel(partition, mapping):
    """``relabel`` as first written: through blocks and their arc diagram."""
    n = partition.n
    image = sorted(mapping(v) for v in range(1, n + 1))
    if image != list(range(1, n + 1)):
        raise ValueError("mapping is not a bijection of 1..n")
    blocks = [tuple(sorted(mapping(v) for v in block)) for block in partition.blocks()]
    return BlockPartition(n, blocks).to_arcs()


def outcome(relabeling, partition, mapping):
    try:
        return relabeling(partition, mapping)
    except ValueError as exc:
        return type(exc), str(exc)


def test_relabel_matches_the_block_route():
    rng = random.Random(12)
    crossings = 0
    for n in range(8):
        for p in enumerate_nc(n):
            images = [rng.sample(range(1, n + 1), n) for _ in range(3)]
            images += [[1] * n, list(range(2, n + 2))]  # not bijections
            for image in images:
                mapping = lambda i: image[i - 1]
                want = outcome(block_route_relabel, p, mapping)
                assert outcome(relabel, p, mapping) == want
                crossings += type(want) is tuple and want[0] is InvalidPartitionError
    assert crossings > 500


@given(st.sampled_from(enumerate_nc(6)), st.integers(min_value=-6, max_value=12))
def test_rotation_composes(p, steps):
    assert rotate(p, steps) == rotate(rotate(p, steps - 1), 1)


def test_circular_text():
    text = circular_text(NCPartition(3, [(1, 3)]))
    assert text == "clockwise: 1[B0] 2[B1] 3[B0]"
    assert circular_text(NCPartition(0)) == "clockwise: (empty)"


def test_package_attribute_is_the_module():
    import nctoggles.kreweras as K

    assert isinstance(K, ModuleType)
    assert callable(K.kreweras)
    assert K.kreweras(PI8) == kreweras(PI8)


@pytest.mark.parametrize("oracle", [kreweras_oracle, kreweras_prime_oracle])
def test_oracle_respects_the_enumeration_ceiling(oracle):
    with pytest.raises(EnumerationLimitError, match="n=16 exceeds the enumeration ceiling of 15"):
        oracle(NCPartition(16, []))
