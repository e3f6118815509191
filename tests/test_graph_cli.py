"""Golden outputs of every ``nctoggles graph`` action.

Each case pins the exit code, the text stdout, stderr and the JSON
``result`` object.  The JSON ``config`` is left out: it echoes the parsed
options, not what the command computed.
"""

import json

import pytest

from nctoggles import cli

FILES = {
    "k4me.txt": "vertices: 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n3 4\n",
    "k3.txt": "1 2\n2 3\n1 3\n",
    "fig10.txt": "a b\nb c\nc d\nd a\nb d\ne f\nf g\n",
    "fig10bf.txt": "a b\nb c\nc d\nd a\nb d\ne f\nf g\nb f\n",
    "fig10bdf.txt": "a b\nb c\nc d\nd a\nb d\ne f\nf g\nb f\nf d\n",
    # multigraph_to_skeletal of A..E with edges AB, AB, BC, CD.
    "skel9.txt": (
        "vertices: A B C D E v1 v2 v3 v4\n"
        "A v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4\n"
    ),
    "multi.txt": "vertices: A B C D E\nA B\nA B\nB C\nC D\n",
    "loop.txt": "vertices: a b\na b\nb b\n",
}

CASES = {
    "check-k4me": ("check-cliquish", "k4me.txt"),
    "check-k3": ("check-cliquish", "k3.txt"),
    "check-fig10": ("check-cliquish", "fig10.txt"),
    "check-fig10bf": ("check-cliquish", "fig10bf.txt"),
    "check-skel9": ("check-cliquish", "skel9.txt"),
    "check-loop": ("check-cliquish", "loop.txt"),
    "check-no-file": ("check-cliquish",),
    "check-k4me-uset": ("check-cliquish", "k4me.txt", "--uset", "3"),
    "skel-k4me": ("skeletalize", "k4me.txt"),
    "skel-k3": ("skeletalize", "k3.txt"),
    "skel-fig10": ("skeletalize", "fig10.txt"),
    "skel-fig10bf": ("skeletalize", "fig10bf.txt"),
    "skel-fig10bf-uset": ("skeletalize", "fig10bf.txt", "--uset", "a c e g"),
    "skel-fig10bf-bad-uset": ("skeletalize", "fig10bf.txt", "--uset", "a c e"),
    "skel-fig10bf-unknown-uset": ("skeletalize", "fig10bf.txt", "--uset", "a c e z"),
    "skel-fig10bdf": ("skeletalize", "fig10bdf.txt"),
    "skel-skel9": ("skeletalize", "skel9.txt"),
    "skel-loop": ("skeletalize", "loop.txt"),
    "tomulti-k4me": ("to-multigraph", "k4me.txt"),
    "tomulti-k3": ("to-multigraph", "k3.txt"),
    "tomulti-fig10": ("to-multigraph", "fig10.txt"),
    "tomulti-fig10bf": ("to-multigraph", "fig10bf.txt"),
    "tomulti-fig10bf-uset": ("to-multigraph", "fig10bf.txt", "--uset", "a c e g"),
    "tomulti-fig10bdf": ("to-multigraph", "fig10bdf.txt"),
    "tomulti-skel9": ("to-multigraph", "skel9.txt"),
    "tomulti-skel9-bad-uset": ("to-multigraph", "skel9.txt", "--uset", "A B"),
    "frommulti-multi": ("from-multigraph", "multi.txt"),
    "frommulti-fig10": ("from-multigraph", "fig10.txt"),
    "frommulti-loop": ("from-multigraph", "loop.txt"),
    "frommulti-multi-uset": ("from-multigraph", "multi.txt", "--uset", "zz"),
    "gen-k4me": ("gen", "--from-skeletal", "k4me.txt"),
    "gen-k3": ("gen", "--from-skeletal", "k3.txt"),
    "gen-fig10": ("gen", "--from-skeletal", "fig10.txt"),
    "gen-fig10-uset": ("gen", "--from-skeletal", "fig10.txt", "--uset", "a c e g"),
    "gen-skel9": ("gen", "--from-skeletal", "skel9.txt"),
    "gen-no-skeletal": ("gen", "fig10.txt"),
    "gen-loop": ("gen", "--from-skeletal", "loop.txt"),
    "gen-file-and-skeletal": ("gen", "/nonexistent", "--from-skeletal", "k4me.txt"),
    "skel-k4me-from-skeletal": ("skeletalize", "k4me.txt", "--from-skeletal", "/nonexistent"),
    "check-k4me-from-skeletal": ("check-cliquish", "k4me.txt", "--from-skeletal", "k4me.txt"),
}


def run_case(capsys, monkeypatch, tmp_path, case, fmt):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["graph", *CASES[case], "--format", fmt])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = {
    'check-k4me': (
        0,
        '2-cliquish with U = {1 2}\n',
        '',
        {'A': 2, 'U': ['1', '2'], 'cliquish': True, 'two_u_neighbors': {'3': ['1', '2'], '4': ['1', '2']}},
    ),
    'check-k3': (
        1,
        'not 2-cliquish\n',
        '',
        {'cliquish': False},
    ),
    'check-fig10': (
        0,
        '2-cliquish with U = {a c e g}\n',
        '',
        {'A': 4, 'U': ['a', 'c', 'e', 'g'], 'cliquish': True, 'two_u_neighbors': {'b': ['a', 'c'], 'd': ['a', 'c'], 'f': ['e', 'g']}},
    ),
    'check-fig10bf': (
        0,
        '2-cliquish with U = {a c e g}\n',
        '',
        {'A': 4, 'U': ['a', 'c', 'e', 'g'], 'cliquish': True, 'two_u_neighbors': {'b': ['a', 'c'], 'd': ['a', 'c'], 'f': ['e', 'g']}},
    ),
    'check-skel9': (
        0,
        '2-cliquish with U = {A B C D E}\n',
        '',
        {'A': 5, 'U': ['A', 'B', 'C', 'D', 'E'], 'cliquish': True, 'two_u_neighbors': {'v1': ['A', 'B'], 'v2': ['A', 'B'], 'v3': ['B', 'C'], 'v4': ['C', 'D']}},
    ),
    'check-loop': (
        3,
        '',
        "error: loop at 'b' not allowed in a simple graph\n",
        None,
    ),
    'check-no-file': (
        3,
        '',
        'error: the following arguments are required: file\n',
        None,
    ),
    'check-k4me-uset': (
        3,
        '',
        'error: unrecognized arguments: --uset 3\n',
        None,
    ),
    'skel-k4me': (
        0,
        'vertices: 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n3 4\n',
        '',
        {'graph': 'vertices: 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n3 4'},
    ),
    'skel-k3': (
        2,
        'not 2-cliquish\n',
        '',
        {'cliquish': False},
    ),
    'skel-fig10': (
        0,
        'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g\n',
        '',
        {'graph': 'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g'},
    ),
    'skel-fig10bf': (
        0,
        'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g\n',
        '',
        {'graph': 'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g'},
    ),
    'skel-fig10bf-uset': (
        0,
        'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g\n',
        '',
        {'graph': 'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g'},
    ),
    'skel-fig10bf-bad-uset': (
        3,
        '',
        'error: --uset is not a valid 2-cliquish witness\n',
        None,
    ),
    'skel-fig10bf-unknown-uset': (
        3,
        '',
        "error: --uset names unknown vertices ['z']\n",
        None,
    ),
    'skel-fig10bdf': (
        0,
        'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g\n',
        '',
        {'graph': 'vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g'},
    ),
    'skel-skel9': (
        0,
        'vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4\n',
        '',
        {'graph': 'vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4'},
    ),
    'skel-loop': (
        3,
        '',
        "error: loop at 'b' not allowed in a simple graph\n",
        None,
    ),
    'tomulti-k4me': (
        0,
        'vertices: 1 2\n1 2\n1 2\n|V| = 2, |E| = 2, |V|+|E| = 4\n',
        '',
        {'edges': 2, 'multigraph': 'vertices: 1 2\n1 2\n1 2', 'vertices': 2},
    ),
    'tomulti-k3': (
        2,
        'not 2-cliquish\n',
        '',
        {'cliquish': False},
    ),
    'tomulti-fig10': (
        0,
        'vertices: a c e g\na c\na c\ne g\n|V| = 4, |E| = 3, |V|+|E| = 7\n',
        '',
        {'edges': 3, 'multigraph': 'vertices: a c e g\na c\na c\ne g', 'vertices': 4},
    ),
    'tomulti-fig10bf': (
        0,
        'vertices: a c e g\na c\na c\ne g\n|V| = 4, |E| = 3, |V|+|E| = 7\n',
        '',
        {'edges': 3, 'multigraph': 'vertices: a c e g\na c\na c\ne g', 'vertices': 4},
    ),
    'tomulti-fig10bf-uset': (
        0,
        'vertices: a c e g\na c\na c\ne g\n|V| = 4, |E| = 3, |V|+|E| = 7\n',
        '',
        {'edges': 3, 'multigraph': 'vertices: a c e g\na c\na c\ne g', 'vertices': 4},
    ),
    'tomulti-fig10bdf': (
        0,
        'vertices: a c e g\na c\na c\ne g\n|V| = 4, |E| = 3, |V|+|E| = 7\n',
        '',
        {'edges': 3, 'multigraph': 'vertices: a c e g\na c\na c\ne g', 'vertices': 4},
    ),
    'tomulti-skel9': (
        0,
        'vertices: A B C D E\nA B\nA B\nB C\nC D\n|V| = 5, |E| = 4, |V|+|E| = 9\n',
        '',
        {'edges': 4, 'multigraph': 'vertices: A B C D E\nA B\nA B\nB C\nC D', 'vertices': 5},
    ),
    'tomulti-skel9-bad-uset': (
        3,
        '',
        'error: --uset is not a valid 2-cliquish witness\n',
        None,
    ),
    'frommulti-multi': (
        0,
        'vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4\nU = {A B C D E}\n',
        '',
        {'U': ['A', 'B', 'C', 'D', 'E'], 'graph': 'vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4'},
    ),
    'frommulti-fig10': (
        0,
        'vertices: a b c d e f g v1 v2 v3 v4 v5 v6 v7\na v1\na v2\nb v1\nb v3\nb v4\nc v3\nc v5\nd v2\nd v4\nd v5\ne v6\nf v6\nf v7\ng v7\nv1 v2\nv1 v3\nv1 v4\nv2 v4\nv2 v5\nv3 v4\nv3 v5\nv4 v5\nv6 v7\nU = {a b c d e f g}\n',
        '',
        {'U': ['a', 'b', 'c', 'd', 'e', 'f', 'g'], 'graph': 'vertices: a b c d e f g v1 v2 v3 v4 v5 v6 v7\na v1\na v2\nb v1\nb v3\nb v4\nc v3\nc v5\nd v2\nd v4\nd v5\ne v6\nf v6\nf v7\ng v7\nv1 v2\nv1 v3\nv1 v4\nv2 v4\nv2 v5\nv3 v4\nv3 v5\nv4 v5\nv6 v7'},
    ),
    'frommulti-loop': (
        3,
        '',
        "error: loop at 'b' not allowed\n",
        None,
    ),
    'frommulti-multi-uset': (
        3,
        '',
        'error: unrecognized arguments: --uset zz\n',
        None,
    ),
    'gen-k4me': (
        0,
        '1 graphs up to isomorphism\n\nvertices: 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n3 4\n',
        '',
        {'count': 1, 'graphs': ['vertices: 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n3 4']},
    ),
    'gen-k3': (
        2,
        'not 2-cliquish\n',
        '',
        {'cliquish': False},
    ),
    'gen-fig10': (
        0,
        '3 graphs up to isomorphism\n\nvertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g\n\nvertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\ne f\nf g\n\nvertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\nd f\ne f\nf g\n',
        '',
        {'count': 3, 'graphs': ['vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g', 'vertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\ne f\nf g', 'vertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\nd f\ne f\nf g']},
    ),
    'gen-fig10-uset': (
        0,
        '3 graphs up to isomorphism\n\nvertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g\n\nvertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\ne f\nf g\n\nvertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\nd f\ne f\nf g\n',
        '',
        {'count': 3, 'graphs': ['vertices: a b c d e f g\na b\na d\nb c\nb d\nc d\ne f\nf g', 'vertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\ne f\nf g', 'vertices: a b c d e f g\na b\na d\nb c\nb d\nb f\nc d\nd f\ne f\nf g']},
    ),
    'gen-skel9': (
        0,
        '3 graphs up to isomorphism\n\nvertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4\n\nvertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv1 v4\nv2 v3\nv3 v4\n\nvertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv1 v4\nv2 v3\nv2 v4\nv3 v4\n',
        '',
        {'count': 3, 'graphs': ['vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv2 v3\nv3 v4', 'vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv1 v4\nv2 v3\nv3 v4', 'vertices: A B C D E v1 v2 v3 v4\nA v1\nA v2\nB v1\nB v2\nB v3\nC v3\nC v4\nD v4\nv1 v2\nv1 v3\nv1 v4\nv2 v3\nv2 v4\nv3 v4']},
    ),
    'gen-no-skeletal': (
        3,
        '',
        'error: the following arguments are required: --from-skeletal\n',
        None,
    ),
    'gen-loop': (
        3,
        '',
        "error: loop at 'b' not allowed in a simple graph\n",
        None,
    ),
    'gen-file-and-skeletal': (
        3,
        '',
        'error: unrecognized arguments: /nonexistent\n',
        None,
    ),
    'skel-k4me-from-skeletal': (
        3,
        '',
        'error: unrecognized arguments: --from-skeletal /nonexistent\n',
        None,
    ),
    'check-k4me-from-skeletal': (
        3,
        '',
        'error: unrecognized arguments: --from-skeletal k4me.txt\n',
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_cli_golden(capsys, monkeypatch, tmp_path, case):
    code, out, err = run_case(capsys, monkeypatch, tmp_path, case, "text")
    json_code, json_out, json_err = run_case(capsys, monkeypatch, tmp_path, case, "json")
    result = json.loads(json_out)["result"] if json_out else None
    expected_code, expected_out, expected_err, expected_result = GOLDEN[case]
    assert (code, out, err) == (expected_code, expected_out, expected_err)
    assert (json_code, json_err) == (expected_code, expected_err)
    assert result == expected_result
