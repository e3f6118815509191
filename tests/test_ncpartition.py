import re

import pytest
from hypothesis import given, strategies as st

import brute
from nctoggles.ncpartition import (
    BlockPartition,
    EnumerationLimitError,
    InvalidPartitionError,
    NCPartition,
    ViolationKind,
    arc_index,
    catalan,
    enumerate_nc,
    index_arc,
    validate,
)

FIG_ARCS = [(1, 4), (4, 5), (7, 10), (8, 9)]


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 2), (5, 42), (14, 2674440)])
def test_catalan_values(n, expected):
    assert catalan(n) == expected


def test_catalan_matches_recurrence():
    for n in range(16):
        assert catalan(n) == brute.catalan_rec(n)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_arc_index_roundtrip():
    for n in (2, 5, 10):
        for k in range(n * (n - 1) // 2):
            assert arc_index(n, index_arc(n, k)) == k


def test_validate_accepts_running_example():
    assert validate(10, FIG_ARCS) is None


def test_validate_crossing():
    violation = validate(4, [(1, 3), (2, 4)])
    assert violation.kind is ViolationKind.CROSSING
    assert violation.arcs == ((1, 3), (2, 4))


def test_validate_left_nesting():
    violation = validate(3, [(1, 2), (1, 3)])
    assert violation.kind is ViolationKind.LEFT_NESTING
    assert violation.arcs == ((1, 2), (1, 3))


def test_validate_right_nesting():
    violation = validate(3, [(1, 3), (2, 3)])
    assert violation.kind is ViolationKind.RIGHT_NESTING


@pytest.mark.parametrize("bad", [(0, 2), (1, 5), (2, 2), (3, 1)])
def test_validate_out_of_range(bad):
    violation = validate(4, [bad])
    assert violation.kind is ViolationKind.OUT_OF_RANGE


def test_validate_duplicate():
    violation = validate(4, [(1, 2), (1, 2)])
    assert violation.kind is ViolationKind.DUPLICATE


def test_validate_agrees_with_bruteforce():
    for n in range(5):
        for arcs in map(sorted, brute.all_partitions(n)):
            assert validate(n, arcs) is None
    # and some invalid sets
    assert validate(5, [(1, 3), (2, 5)]) is not None
    assert validate(5, [(2, 4), (2, 5)]) is not None


def test_constructor_rejects_invalid():
    with pytest.raises(InvalidPartitionError) as err:
        NCPartition(4, [(1, 3), (2, 4)])
    assert err.value.violation.kind is ViolationKind.CROSSING


def test_ground_set_bounds():
    with pytest.raises(ValueError):
        NCPartition(-1)
    with pytest.raises(ValueError):
        NCPartition(65)
    assert NCPartition(64, [(1, 64)]).arc_count == 1


def test_blocks_of_running_example():
    p = NCPartition(10, FIG_ARCS)
    assert p.blocks() == ((1, 4, 5), (2,), (3,), (6,), (7, 10), (8, 9))
    assert p.block_partition().blocks == p.blocks()


def test_blocks_empty_and_eight_point_example():
    assert NCPartition(3).blocks() == ((1,), (2,), (3,))
    p = NCPartition(8, [(2, 4), (4, 5), (6, 8)])
    assert p.blocks() == ((1,), (2, 4, 5), (3,), (6, 8), (7,))


def test_block_count_is_n_minus_arc_count():
    for n in range(7):
        for arcs in brute.all_partitions(n):
            p = NCPartition(n, sorted(arcs))
            assert p.arc_count + p.block_count == n
            assert p.blocks() == tuple(
                tuple(sorted(b))
                for b in sorted(brute.blocks(n, arcs), key=min)
            )


def test_blocks_to_arcs_examples():
    bp = BlockPartition(10, [(1, 4, 5), (2,), (3,), (6,), (7, 10), (8, 9)])
    assert bp.to_arcs().arcs() == tuple(sorted(FIG_ARCS))
    assert BlockPartition(3, [(1,), (2,), (3,)]).to_arcs().arcs() == ()
    assert BlockPartition(3, [(1, 2, 3)]).to_arcs().arcs() == ((1, 2), (2, 3))


def test_blocks_to_arcs_rejects_crossing():
    bp = BlockPartition(4, [(1, 3), (2, 4)])
    with pytest.raises(InvalidPartitionError) as err:
        bp.to_arcs()
    assert err.value.violation.kind is ViolationKind.CROSSING


def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(3, [(1, 2)])  # missing 3
    with pytest.raises(ValueError):
        BlockPartition(3, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError):
        BlockPartition(3, [(1, 2, 3), ()])  # empty block


def test_roundtrip_blocks_arcs():
    for n in range(9):
        for p in enumerate_nc(n):
            assert validate(n, p.arcs()) is None
            assert p.block_partition().to_arcs() == p


def test_each_block_contributes_size_minus_one_arcs():
    for p in enumerate_nc(6):
        by_block = {}
        for i, j in p.arcs():
            block = next(b for b in p.blocks() if i in b)
            by_block[block] = by_block.get(block, 0) + 1
        for block in p.blocks():
            assert by_block.get(block, 0) == len(block) - 1


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (3, 5), (4, 14), (9, 4862)])
def test_enumeration_counts(n, count):
    assert len(enumerate_nc(n)) == count


def test_enumeration_matches_bruteforce_sets():
    for n in range(7):
        ours = {frozenset(p.arcs()) for p in enumerate_nc(n)}
        assert ours == brute.all_partitions(n)


def test_enumeration_order_is_lexicographic():
    for n in (4, 5):
        listing = [p.arcs() for p in enumerate_nc(n)]
        assert listing == sorted(listing)
        assert len(set(listing)) == len(listing)


def test_enumeration_ceiling():
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_nc(17)
    assert "17" in str(err.value) and "15" in str(err.value)
    with pytest.raises(EnumerationLimitError):
        enumerate_nc(6, limit=5)


def test_text_serialization():
    p = NCPartition(10, FIG_ARCS)
    assert p.to_text() == "10; (1,4) (4,5) (7,10) (8,9)"
    assert NCPartition.from_text(p.to_text()) == p
    assert NCPartition(3).to_text() == "3;"
    assert NCPartition.from_text("3;") == NCPartition(3)


def test_block_text():
    p = NCPartition(10, FIG_ARCS)
    text = p.block_partition().to_text()
    assert text == "{1,4,5}{2}{3}{6}{7,10}{8,9}"
    assert BlockPartition.from_text(text, 10) == p.block_partition()


def test_json_roundtrip():
    p = NCPartition(10, FIG_ARCS)
    obj = p.to_json_dict()
    assert obj == {"n": 10, "arcs": [[1, 4], [4, 5], [7, 10], [8, 9]]}


@given(st.sampled_from(enumerate_nc(6)))
def test_serialization_roundtrips(p):
    assert NCPartition.from_text(p.to_text()) == p
    assert BlockPartition.from_text(p.block_partition().to_text(), 6).to_arcs() == p


def test_equality_and_hash():
    a = NCPartition(4, [(1, 2)])
    b = NCPartition(4, [(1, 2)])
    c = NCPartition(5, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("arc,shown", [(5, "5"), (None, "None"), ((1, 2, 3), "(1,2,3)")])
def test_validate_reports_a_non_pair_arc_out_of_range(arc, shown):
    bad = validate(4, [arc])
    assert bad.kind is ViolationKind.OUT_OF_RANGE
    assert str(bad) == f"out_of_range: {shown}"
    with pytest.raises(InvalidPartitionError, match=rf"^out_of_range: {re.escape(shown)}$"):
        NCPartition(4, [arc])


def test_immutable():
    p = NCPartition(4)
    with pytest.raises(AttributeError):
        p.n = 5
