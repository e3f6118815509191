"""The package's value types share one contract: immutable, slotted, equal
and hashed by value, with the repr each class writes.  Every one of them is
declared as a frozen, slotted dataclass; none writes ``__setattr__`` or
``__slots__`` by hand."""

import ast
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nctoggles.core import PackedSets
from nctoggles.dynamics import Statistic
from nctoggles.indsets import Multigraph, SimpleGraph
from nctoggles.ncpartition import BlockPartition, NCPartition
from nctoggles.words import ToggleWord

SRC = Path(__file__).resolve().parent.parent / "src"
GRAPH_TEXT = "a b\nb c\nvertices: d"
MULTIGRAPH_TEXT = "x y\nx y\ny z"

# (instance, a field, its repr, the hash by the class's tuple formula)
CASES = [
    (
        NCPartition(5, [(1, 3), (3, 5)]), "mask",
        "NCPartition(5, [(1, 3), (3, 5)])", hash((5, 0b100000010)),
    ),
    (
        BlockPartition(4, [[4, 1], [2], [3]]), "blocks",
        "BlockPartition(4, [[1, 4], [2], [3]])", hash((4, ((1, 4), (2,), (3,)))),
    ),
    (
        ToggleWord.from_text(4, "1,2 2,3 3,4"), "arcs",
        "ToggleWord.from_text(4, '1,2 2,3 3,4')", hash((4, ((3, 4), (2, 3), (1, 2)))),
    ),
    (
        Statistic.alpha() + Fraction(1, 2) * Statistic.psi(2), "terms",
        "<Statistic alpha + 1/2*psi:2>",
        hash(((("alpha",), Fraction(1)), (("psi", 2), Fraction(1, 2)))),
    ),
    (
        SimpleGraph.from_text(GRAPH_TEXT), "adj",
        "SimpleGraph(['a', 'b', 'c', 'd'], [('a', 'b'), ('b', 'c')])", None,
    ),
    (
        Multigraph.from_text(MULTIGRAPH_TEXT), "edges",
        "Multigraph(['x', 'y', 'z'], [('x', 'y'), ('x', 'y'), ('y', 'z')])", None,
    ),
    (
        PackedSets.of((1, 2**64 + 5, 3), 2), "lanes",
        "PackedSets(<3 sets in 2 lanes>)", None,
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value,field,text,expected_hash", CASES, ids=IDS)
def test_value_type_keeps_its_contract(value, field, text, expected_hash):
    cls = type(value)
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    assert not hasattr(value, "__dict__")
    assert repr(value) == text
    if expected_hash is not None:
        assert hash(value) == expected_hash
    with pytest.raises(AttributeError) as caught:
        setattr(value, field, getattr(value, field))
    assert isinstance(caught.value, dataclasses.FrozenInstanceError)


def test_graph_hashes_are_pinned():
    code = (
        "from nctoggles.indsets import Multigraph, SimpleGraph\n"
        f"print(hash(SimpleGraph.from_text({GRAPH_TEXT!r})))\n"
        f"print(hash(Multigraph.from_text({MULTIGRAPH_TEXT!r})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["-5683296837795787184", "4437366385765026734"]


def test_graphs_compare_by_label_sets():
    assert SimpleGraph(["a", "b"], [("a", "b")]) == SimpleGraph(["b", "a"], [("b", "a")])
    assert Multigraph([1, 2], [(2, 1)]) == Multigraph([2, 1], [(1, 2)])
    assert SimpleGraph([1], []) != Multigraph([1], [])


@pytest.mark.parametrize(
    "path", sorted((SRC / "nctoggles").glob("*.py")), ids=lambda p: p.name
)
def test_no_class_writes_the_value_contract_by_hand(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = {
                target.id
                for stmt in node.body if isinstance(stmt, ast.Assign)
                for target in stmt.targets if isinstance(target, ast.Name)
            }
            names |= {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
            assert not names & {"__slots__", "__setattr__"}, node.name
