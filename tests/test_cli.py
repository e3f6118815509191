import argparse
import json

import pytest

from nctoggles import __version__, cli, ncpartition
from nctoggles.indsets import Multigraph, multigraph_to_skeletal
from nctoggles.verify import NC6_COXETER_TEXT

K4ME_TEXT = "vertices: 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n3 4\n"
K3_TEXT = "1 2\n2 3\n1 3\n"
FIG10_TEXT = "a b\nb c\nc d\nd a\nb d\ne f\nf g\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--count-only")
    assert code == 0 and out.strip() == "14"


def test_enumerate_lists_partitions(capsys):
    code, out, _ = run(capsys, "enumerate", "3")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 5
    assert lines[0] == "3;"


def test_enumerate_blocks(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--blocks")
    assert code == 0 and "{1,2,3}" in out


def test_enumerate_ceiling_exit_code(capsys):
    code, out, err = run(capsys, "enumerate", "20")
    assert code == 2
    assert "15" in err and "20" in err


def test_enumerate_16_is_over_the_default_ceiling(capsys):
    # enumerate_masks raises before it enumerates, so nothing is allocated.
    code, out, err = run(capsys, "enumerate", "16", "--count-only")
    assert code == 2 and out == ""
    assert "n=16 exceeds the enumeration ceiling of 15" in err


def test_enumerate_env_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("NCTOGGLES_MAX_ENUM", "5")
    code, _, err = run(capsys, "enumerate", "6")
    assert code == 2 and "5" in err
    code, out, _ = run(capsys, "enumerate", "6", "--max-n", "6", "--count-only")
    assert code == 0 and out.strip() == "132"


@pytest.mark.parametrize(
    "argv", [("enumerate", "6", "--count-only"), ("kreweras", "6", "--oracle")]
)
def test_the_default_ceiling_is_read_from_ncpartition(capsys, monkeypatch, argv):
    monkeypatch.setattr(ncpartition, "DEFAULT_ENUM_LIMIT", 5)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "n=6 exceeds the enumeration ceiling of 5" in err


def test_toggle_single_arc(capsys):
    code, out, _ = run(
        capsys, "toggle", "10",
        "--partition", "(1,4) (4,5) (7,10) (8,9)", "--arc", "2,3",
    )
    assert code == 0
    assert out.strip() == "10; (1,4) (2,3) (4,5) (7,10) (8,9)"


def test_toggle_word(capsys):
    code, out, _ = run(
        capsys, "toggle", "4", "--partition", "", "--word", "3,4 1,2 2,3 1,4"
    )
    assert code == 0 and out.strip() == "4; (1,4) (2,3)"


def test_toggle_requires_arc_or_word(capsys):
    code, _, err = run(capsys, "toggle", "4", "--partition", "")
    assert code == 3


def test_orbits_sizes_only(capsys):
    code, out, _ = run(
        capsys, "orbits", "4", "--word", "3,4 1,2 2,3 1,4", "--sizes-only"
    )
    assert code == 0 and out.strip() == "2 2 2 2 6"


def test_orbits_word_file(capsys, tmp_path):
    word_file = tmp_path / "cox6.txt"
    word_file.write_text(NC6_COXETER_TEXT + "\n")
    code, out, _ = run(
        capsys, "orbits", "6", "--word-file", str(word_file), "--sizes-only"
    )
    assert code == 0 and out.strip() == "4 22 46 60"


def test_orbits_sizes_only_json_golden(capsys, tmp_path):
    word_file = tmp_path / "cox6.txt"
    word_file.write_text(NC6_COXETER_TEXT + "\n")
    argv = (
        "orbits", "6", "--word-file", str(word_file), "--sizes-only",
        "--format", "json",
    )
    code, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert code == 0 and first == second
    envelope = json.loads(first)
    assert envelope["result"] == {
        "n": 6, "word": NC6_COXETER_TEXT, "orbit_count": 4, "sizes": [4, 22, 46, 60],
    }
    assert "threads" not in envelope["config"]


def test_threads_flag_is_a_usage_error(capsys):
    for argv in (
        ("orbits", "5", "--word", "4,5 3,4", "--threads", "2"),
        ("homomesy", "5", "--word", "4,5 3,4", "--stat", "alpha", "--threads", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "--threads" in err


def test_orbits_full_listing(capsys):
    code, out, _ = run(capsys, "orbits", "3", "--word", "1,3 2,3 1,2")
    assert code == 0
    assert "orbits: 2" in out
    assert "orbit 0" in out and "->" in out


def test_homomesy_positive(capsys):
    code, out, _ = run(
        capsys, "homomesy", "4", "--word", "3,4 1,2 2,3 1,4", "--stat", "alpha"
    )
    assert code == 0 and "verdict: 3/2-mesic" in out


def test_homomesy_negative_exit_code(capsys):
    code, out, _ = run(
        capsys, "homomesy", "3", "--word", "1,3 2,3 1,2", "--stat", "chi:1,3"
    )
    assert code == 1
    assert "not homomesic" in out
    assert "orbit" in out


def test_homomesy_json_deterministic(capsys):
    argv = [
        "homomesy", "4", "--word", "3,4 1,2 2,3 1,4",
        "--stat", "alpha", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["version"]
    assert payload["seed"] is None
    assert payload["config"]["stat"] == "alpha"
    assert payload["result"]["verdict"] == "3/2-mesic"
    assert {"size": 6, "average": "3/2"} in payload["result"]["orbits"]


# Output of ``homomesy 6 --word <NC6_COXETER_TEXT>``, byte for byte, with the
# package version substituted for ``{version}``.
HOMOMESY6_GOLDEN = {
    ('alpha', 'text'): (
        0,
        'word: 4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,6 3,5 2,3 1,4 5,6 4,5\n'
        'statistic: alpha on NC(6)\norbit  size  average\n'
        '    0    60      5/2\n    1    46      5/2\n    2    22      5/2\n'
        '    3     4      5/2\nverdict: 5/2-mesic\n'
    ),
    ('alpha', 'json'): (
        0,
        '{"config":{"command":"homomesy","format":"json","max_n":null,"n":6,'
        '"stat":"alpha","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,'
        '6 2,6 3,5 2,3 1,4 5,6 4,5","word_file":null},'
        '"result":{"homomesic":true,"mean":"5/2","orbits":[{"average":"5/2",'
        '"size":60},{"average":"5/2","size":46},{"average":"5/2","size":22},'
        '{"average":"5/2","size":4}],"space":"NC(6)","statistic":"alpha",'
        '"verdict":"5/2-mesic","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,'
        '6 3,5 2,3 1,4 5,6 4,5"},"seed":null,"version":"{version}"}\n'
    ),
    ('beta', 'text'): (
        0,
        'word: 4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,6 3,5 2,3 1,4 5,6 4,5\n'
        'statistic: beta on NC(6)\norbit  size  average\n    0    60      7/2\n'
        '    1    46      7/2\n    2    22      7/2\n    3     4      7/2\n'
        'verdict: 7/2-mesic\n'
    ),
    ('beta', 'json'): (
        0,
        '{"config":{"command":"homomesy","format":"json","max_n":null,"n":6,'
        '"stat":"beta","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,'
        '6 2,6 3,5 2,3 1,4 5,6 4,5","word_file":null},'
        '"result":{"homomesic":true,"mean":"7/2","orbits":[{"average":"7/2",'
        '"size":60},{"average":"7/2","size":46},{"average":"7/2","size":22},'
        '{"average":"7/2","size":4}],"space":"NC(6)","statistic":"beta",'
        '"verdict":"7/2-mesic","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,'
        '6 3,5 2,3 1,4 5,6 4,5"},"seed":null,"version":"{version}"}\n'
    ),
    ('psi:3', 'text'): (
        0,
        'word: 4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,6 3,5 2,3 1,4 5,6 4,5\n'
        'statistic: psi:3 on NC(6)\norbit  size  average\n'
        '    0    60        1\n    1    46        1\n    2    22        1\n'
        '    3     4        1\nverdict: 1-mesic\n'
    ),
    ('psi:3', 'json'): (
        0,
        '{"config":{"command":"homomesy","format":"json","max_n":null,"n":6,'
        '"stat":"psi:3","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,'
        '6 2,6 3,5 2,3 1,4 5,6 4,5","word_file":null},'
        '"result":{"homomesic":true,"mean":"1","orbits":[{"average":"1",'
        '"size":60},{"average":"1","size":46},{"average":"1","size":22},'
        '{"average":"1","size":4}],"space":"NC(6)","statistic":"psi:3",'
        '"verdict":"1-mesic","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,6 3,'
        '5 2,3 1,4 5,6 4,5"},"seed":null,"version":"{version}"}\n'
    ),
    ('chi:1,3', 'text'): (
        1,
        'word: 4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,6 3,5 2,3 1,4 5,6 4,5\n'
        'statistic: chi:1,3 on NC(6)\norbit  size  average\n'
        '    0    60     1/12\n    1    46     5/46\n    2    22     3/22\n'
        '    3     4      1/4\nverdict: not homomesic: orbit 0 averages 1/12,'
        ' orbit 1 averages 5/46\n'
    ),
    ('chi:1,3', 'json'): (
        1,
        '{"config":{"command":"homomesy","format":"json","max_n":null,"n":6,'
        '"stat":"chi:1,3","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,'
        '2 1,6 2,6 3,5 2,3 1,4 5,6 4,5","word_file":null},'
        '"result":{"homomesic":false,"mean":null,"orbits":[{"average":"1/12",'
        '"size":60},{"average":"5/46","size":46},{"average":"3/22","size":22},'
        '{"average":"1/4","size":4}],"space":"NC(6)","statistic":"chi:1,3",'
        '"verdict":"not homomesic: orbit 0 averages 1/12,'
        ' orbit 1 averages 5/46","word":"4,6 3,6 2,4 1,5 2,5 1,3 3,4 1,2 1,6 2,'
        '6 3,5 2,3 1,4 5,6 4,5"},"seed":null,"version":"{version}"}\n'
    ),
}


@pytest.mark.parametrize("stat, fmt", list(HOMOMESY6_GOLDEN))
def test_homomesy_nc6_golden(capsys, stat, fmt):
    want_code, want_out = HOMOMESY6_GOLDEN[stat, fmt]
    code, out, err = run(
        capsys, "homomesy", "6", "--word", NC6_COXETER_TEXT, "--stat", stat,
        "--format", fmt,
    )
    assert (code, out, err) == (
        want_code, want_out.replace("{version}", __version__), ""
    )


@pytest.mark.parametrize(
    "stat, message",
    [
        ("chi:1,9", "chi index (1,9) out of range for n=4"),
        ("psi:4", "psi index 4 out of range for n=4"),
    ],
)
def test_homomesy_index_out_of_range(capsys, stat, message):
    code, out, err = run(
        capsys, "homomesy", "4", "--word", "3,4 1,2 2,3 1,4", "--stat", stat
    )
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("stat", ["chi:1,9", "psi:6"])
def test_homomesy_ceiling_wins_over_bad_index(capsys, stat):
    code, out, err = run(
        capsys, "homomesy", "6", "--word", NC6_COXETER_TEXT, "--stat", stat,
        "--max-n", "5",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: n=6 exceeds the enumeration ceiling of 5; "
        "raise the limit explicitly to proceed\n"
    )


def test_word_parse_error_cites_token(capsys):
    code, _, err = run(capsys, "homomesy", "4", "--word", "1,2 oops", "--stat", "alpha")
    assert code == 3
    assert "oops" in err and "position 1" in err


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "homomesy", "4", "--word", "1,2")
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (("kreweras", "4", "--partition", "1,2", "--prime", "--power", "2"),
         "argument --power: not allowed with argument --prime"),
        (("kreweras", "4", "--partition", "1,2", "--simion-ullman", "--prime"),
         "argument --prime: not allowed with argument --simion-ullman"),
        (("toggle", "4", "--arc", "1,2", "--word", "2,3"),
         "argument --word: not allowed with argument --arc"),
        (("toggle", "4", "--arc", "1,2", "--word-file", "w.txt"),
         "argument --word-file: not allowed with argument --arc"),
        (("toggle", "4", "--word", "2,3", "--word-file", "w.txt"),
         "argument --word-file: not allowed with argument --word"),
        (("orbits", "4", "--word", "2,3", "--word-file", "w.txt"),
         "argument --word-file: not allowed with argument --word"),
        (("homomesy", "4", "--word-file", "w.txt", "--word", "2,3", "--stat", "alpha"),
         "argument --word: not allowed with argument --word-file"),
        (("enumerate", "4", "--count-only", "--blocks"),
         "argument --blocks: not allowed with argument --count-only"),
    ],
)
def test_flags_that_would_be_ignored_are_usage_errors(
    capsys, monkeypatch, tmp_path, argv, message
):
    # Each pair was accepted, and one flag of it silently dropped.
    (tmp_path / "w.txt").write_text("1,2\n")
    monkeypatch.chdir(tmp_path)
    for fmt in ("text", "json"):
        assert run(capsys, *argv, "--format", fmt) == (3, "", f"error: {message}\n")


def test_unknown_statistic(capsys):
    code, _, err = run(capsys, "homomesy", "4", "--word", "1,2", "--stat", "zeta")
    assert code == 3 and "zeta" in err


def test_kreweras_worked_example(capsys):
    code, out, _ = run(capsys, "kreweras", "8", "--partition", "(2,4) (4,5) (6,8)")
    assert code == 0
    assert "8; (1,5) (2,3) (5,8) (6,7)" in out


def test_kreweras_power_two_is_rotation(capsys):
    code, out, _ = run(
        capsys, "kreweras", "8", "--partition", "(2,4) (4,5) (6,8)", "--power", "2"
    )
    assert code == 0 and "8; (1,3) (3,4) (5,7)" in out


def test_kreweras_power_2n_is_identity(capsys):
    code, out, _ = run(
        capsys, "kreweras", "8", "--partition", "(2,4) (4,5) (6,8)", "--power", "16"
    )
    assert code == 0 and "8; (2,4) (4,5) (6,8)" in out


def test_kreweras_oracle_route_matches(capsys):
    _, fast, _ = run(capsys, "kreweras", "8", "--partition", "(2,4) (4,5) (6,8)")
    _, slow, _ = run(
        capsys, "kreweras", "8", "--partition", "(2,4) (4,5) (6,8)", "--oracle"
    )
    assert fast == slow


@pytest.mark.parametrize("flags", [["--oracle"], ["--prime", "--oracle"]])
def test_kreweras_oracle_ceiling_exit_code(capsys, flags):
    # The oracle raises before it builds its C_16 candidate table.
    code, out, err = run(capsys, "kreweras", "16", *flags)
    assert (code, out) == (2, "")
    assert "n=16 exceeds the enumeration ceiling of 15" in err


@pytest.mark.parametrize("route", [[], ["--prime"]])
def test_kreweras_oracle_reads_max_n_and_the_environment(capsys, monkeypatch, route):
    monkeypatch.setattr(ncpartition, "DEFAULT_ENUM_LIMIT", 5)
    monkeypatch.delenv("NCTOGGLES_MAX_ENUM", raising=False)
    argv = ("kreweras", "6", "--partition", "(1,3) (4,6)", *route)
    code, word_route, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--oracle")
    assert (code, out) == (2, "")
    assert "n=6 exceeds the enumeration ceiling of 5" in err
    assert run(capsys, *argv, "--oracle", "--max-n", "6") == (0, word_route, "")
    monkeypatch.setenv("NCTOGGLES_MAX_ENUM", "6")
    assert run(capsys, *argv, "--oracle") == (0, word_route, "")


@pytest.mark.parametrize(
    "flags, name", [(["--simion-ullman"], "--simion-ullman"), (["--power", "2"], "--power")]
)
def test_kreweras_oracle_has_no_simion_ullman_or_power_route(capsys, flags, name):
    argv = ("kreweras", "9", "--partition", "(1,2)", *flags)
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--oracle", "--max-n", "8") == (
        3, "", f"error: --oracle does not apply to {name}\n"
    )


@pytest.mark.parametrize(
    "argv", [("toggle", "6", "--arc", "1,2"), ("graph", "check-cliquish", "k4me.txt")]
)
def test_max_n_is_not_an_option_where_nothing_reads_it(
    capsys, monkeypatch, tmp_path, argv
):
    (tmp_path / "k4me.txt").write_text(K4ME_TEXT)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--max-n", "1")
    assert (code, out) == (3, "") and "--max-n" in err
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert "max_n" not in json.loads(out)["config"]


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "3", "--count-only"),
        ("toggle", "4", "--arc", "1,2"),
        ("orbits", "4", "--word", "1,2 2,3"),
        ("homomesy", "4", "--word", "3,4 1,2 2,3 1,4", "--stat", "alpha"),
        ("kreweras", "4", "--partition", "1,2"),
        ("graph", "check-cliquish", "k4me.txt"),
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_not_an_option_where_nothing_reads_it(
    capsys, monkeypatch, tmp_path, argv
):
    (tmp_path / "k4me.txt").write_text(K4ME_TEXT)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--seed", "5") == (
        3, "", "error: unrecognized arguments: --seed 5\n"
    )


def sub_parsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def dests(parser) -> set:
    return {a.dest for a in parser._actions} - {"help"}


def test_the_parser_holds_each_commands_options():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    commands = sub_parsers(parser)
    actions = sub_parsers(commands["graph"])
    seeded = [
        name
        for name, p in [*commands.items(), *actions.items()]
        if "seed" in dests(p)
    ]
    assert seeded == ["verify-all"]
    word = {"word", "word_file"}
    assert {name: dests(p) for name, p in commands.items()} == {
        "enumerate": {"n", "count_only", "blocks", "format", "max_n"},
        "toggle": {"n", "partition", "arc", *word, "format"},
        "orbits": {"n", *word, "sizes_only", "format", "max_n"},
        "homomesy": {"n", *word, "stat", "format", "max_n"},
        "kreweras": {
            "n", "partition", "prime", "simion_ullman", "power", "oracle",
            "circular", "dot", "format", "max_n",
        },
        "graph": {"action"},
        "verify-all": {"max_n", "words", "seed", "format"},
    }
    assert {name: dests(p) for name, p in actions.items()} == {
        "check-cliquish": {"file", "format"},
        "skeletalize": {"file", "uset", "format"},
        "to-multigraph": {"file", "uset", "format"},
        "from-multigraph": {"file", "format"},
        "gen": {"from_skeletal", "uset", "format"},
    }


KREWERAS4_DOT = (
    "graph partition {\n  layout=circo;\n  1;\n  2;\n  3;\n  4;\n"
    "  2 -- 3;\n  3 -- 4;\n}"
)


def test_kreweras_layouts_join_the_json_result(capsys):
    argv = ("kreweras", "4", "--partition", "1,2", "--circular", "--dot")
    circular = "clockwise: 1[B0] 2[B1] 3[B1] 4[B1]"
    assert run(capsys, *argv) == (
        0, f"4; (2,3) (3,4)\n{{1}}{{2,3,4}}\n{circular}\n{KREWERAS4_DOT}\n", ""
    )
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {
        "blocks": "{1}{2,3,4}",
        "circular": circular,
        "dot": KREWERAS4_DOT,
        "input": {"arcs": [[1, 2]], "n": 4},
        "operation": "complement",
        "output": {"arcs": [[2, 3], [3, 4]], "n": 4},
    }
    for flag, key in (("--circular", "circular"), ("--dot", "dot")):
        _, out, _ = run(capsys, *argv[:4], flag, "--format", "json")
        assert set(json.loads(out)["result"]) == {
            "blocks", "input", "operation", "output", key
        }


@pytest.mark.parametrize("route", [[], ["--prime"], ["--simion-ullman"], ["--power", "2"]])
def test_kreweras_max_n_needs_the_oracle(capsys, route):
    argv = ("kreweras", "4", "--partition", "1,2", *route, "--max-n", "2")
    for fmt in ("text", "json"):
        assert run(capsys, *argv, "--format", fmt) == (
            3, "", "error: --max-n applies only to --oracle\n"
        )


def test_kreweras_simion_ullman_involution(capsys):
    code, out, _ = run(
        capsys, "kreweras", "8", "--partition", "(2,4) (4,5) (6,8)",
        "--simion-ullman",
    )
    assert code == 0
    first = out.strip().splitlines()[0].split("; ", 1)[1]
    code, out, _ = run(
        capsys, "kreweras", "8", "--partition", first, "--simion-ullman"
    )
    assert code == 0 and "8; (2,4) (4,5) (6,8)" in out


def test_kreweras_accepts_block_text_and_circular(capsys):
    code, out, _ = run(
        capsys, "kreweras", "3", "--partition", "{1,3}{2}", "--circular", "--dot"
    )
    assert code == 0 and "clockwise:" in out and "layout=circo" in out


def test_graph_check_cliquish(capsys, tmp_path):
    path = tmp_path / "k4me.txt"
    path.write_text(K4ME_TEXT)
    code, out, _ = run(capsys, "graph", "check-cliquish", str(path))
    assert code == 0 and "U = {1 2}" in out


def test_graph_check_cliquish_negative(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code, out, _ = run(capsys, "graph", "check-cliquish", str(path))
    assert code == 1 and "not 2-cliquish" in out


def test_graph_to_multigraph(capsys, tmp_path):
    m = Multigraph("ABCDE", [("A", "B"), ("A", "B"), ("B", "C"), ("C", "D")])
    graph, _ = multigraph_to_skeletal(m)
    path = tmp_path / "skeletal9.txt"
    path.write_text(graph.to_text())
    code, out, _ = run(capsys, "graph", "to-multigraph", str(path))
    assert code == 0
    assert "|V|+|E| = 9" in out


def test_graph_from_multigraph(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("vertices: A B C D E\nA B\nA B\nB C\nC D\n")
    code, out, _ = run(capsys, "graph", "from-multigraph", str(path))
    assert code == 0
    assert "U = {A B C D E}" in out
    assert "v1" in out


def test_graph_gen_from_skeletal(capsys, tmp_path):
    path = tmp_path / "fig10.txt"
    path.write_text(FIG10_TEXT)
    code, out, _ = run(capsys, "graph", "gen", "--from-skeletal", str(path))
    assert code == 0 and "3 graphs up to isomorphism" in out


def test_graph_skeletalize(capsys, tmp_path):
    path = tmp_path / "aug.txt"
    path.write_text(FIG10_TEXT + "b f\n")
    code, out, _ = run(capsys, "graph", "skeletalize", str(path))
    assert code == 0
    assert "b f" not in out


def test_graph_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "graph", "check-cliquish", str(tmp_path / "nope.txt"))
    assert code == 3


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-n", "4", "--words", "2")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 14
    assert all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize("words, message", [
    ("0", "must be at least 1, got 0"),
    ("-3", "must be at least 1, got -3"),
    ("many", "invalid count value: 'many'"),
])
def test_verify_all_needs_a_word_to_sample(capsys, words, message):
    # With no word, three checks would pass on nothing.
    assert run(capsys, "verify-all", "--words", words) == (
        3, "", f"error: argument --words: {message}\n"
    )


def test_verify_all_json(capsys):
    code, out, _ = run(
        capsys, "verify-all", "--max-n", "4", "--words", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_passed"] is True
    assert len(payload["result"]["checks"]) == 14
    assert payload["seed"] == 2026


#: The ``(name, passed, detail)`` of each check of ``verify-all`` at the CLI
#: defaults (n <= 7, 100 words, seed 2026); seconds vary from run to run.
VERIFY_ALL_GOLDEN = [
    ("catalan_counts", True, "counts match C_n for n <= 7 (C_7 = 429)"),
    ("nc4_sample_word", True, "5 orbits, sizes [2, 2, 2, 2, 6], every alpha average 3/2"),
    ("nc6_coxeter_orbit_sizes", True, "orbit sizes [4, 22, 46, 60]"),
    ("arc_count_homomesy", True,
     "500 words (n=3..7, seed=2026): alpha (n-1)/2-mesic, beta (n+1)/2-mesic"),
    ("psi_balance", True,
     "500 words (n=3..7, seed=2026): psi_k 1-mesic with balanced 0/2 counts per orbit"),
    ("pair_orders", True, "orders in {1,2,6} and degrees m(n+1-m)-2 for n <= 6"),
    ("arc_containment_counts", True,
     "containing = C(n-k)C(k-1), fixed = C_n - 2 containing, symmetric, for n <= 7"),
    ("kreweras_agreement", True,
     "oracle = word route, prime/inverse identities, k^2 = rotation, block-count "
     "sums, for n <= 7"),
    ("row_column_identity", True, "row and column words equal as permutations for n <= 7"),
    ("even_orbits", True, "200 words (n in (4, 6), seed=2026): all orbit sizes even"),
    ("chi13_negative_control", True,
     "chi:1,3 verdict: not homomesic: orbit 0 averages 1/3, orbit 1 averages 0"),
    ("independent_set_generalization", True,
     "base-graph equivalence for n <= 6; K4-e, pendant-doubled, and triangled C6 all "
     "|U|/2-mesic (20 words each, seed=2026)"),
    ("skeletal_multigraph_bijection", True,
     "209 multigraphs with |V|+|E| <= 7 roundtrip; pinned instances match"),
    ("chi_sum_conjugation", True,
     "113 single-source conjugations (n <= 5, seed=2026) preserve orbit sizes and chi sums"),
]


def test_verify_all_json_golden(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    envelope = json.loads(out)
    assert code == 0 and envelope["config"] == {
        "command": "verify-all", "format": "json", "max_n": 7, "seed": 2026, "words": 100,
    }
    checks = envelope["result"]["checks"]
    assert all(sorted(c) == ["detail", "name", "passed", "seconds"] for c in checks)
    assert [(c["name"], c["passed"], c["detail"]) for c in checks] == VERIFY_ALL_GOLDEN
    assert envelope["result"]["all_passed"] is True


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 3
