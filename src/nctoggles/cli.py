"""Command-line driver: every operation as a reproducible, scriptable run.

Exit codes: 0 = verified / holds, 1 = falsified / counterexample found,
2 = precondition unmet (including enumeration ceilings and the numpy
engine's refusal of a state set it cannot index exactly), 3 = usage or
parse error.  JSON output is byte-identical across identical invocations
and embeds the invocation config, tool version, and seed; only
``verify-all`` draws at random and takes ``--seed``, so every other
command's ``seed`` is null.

The enumeration ceiling defaults to 15.  The commands that enumerate
NC(n) read it: ``enumerate``, ``orbits``, ``homomesy`` and
``kreweras --oracle``.  They take ``--max-n`` per invocation, else the
NCTOGGLES_MAX_ENUM environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .core import EngineRefusal
from .dynamics import check_homomesy, orbit_sizes, orbits, parse_statistic
from .indsets import (
    GraphSizeError,
    Multigraph,
    SimpleGraph,
    check_cliquish_with,
    enumerate_2cliquish_from_skeletal,
    is_2_cliquish,
    multigraph_to_skeletal,
    skeletal_to_multigraph,
    skeletalize,
)
from .kreweras import (
    circular_dot,
    circular_text,
    kreweras,
    kreweras_oracle,
    kreweras_power,
    kreweras_prime,
    kreweras_prime_oracle,
    simion_ullman,
)
from .ncpartition import (
    BlockPartition,
    EnumerationLimitError,
    NCPartition,
    catalan,
    enumerate_masks,
    enumerate_nc,
    parse_arcs,
)
from .toggles import toggle
from .verify import DEFAULT_SEED, DEFAULT_WORDS, run_all
from .words import ToggleWord

OK, FALSIFIED, PRECONDITION, USAGE = 0, 1, 2, 3

ENV_LIMIT = "NCTOGGLES_MAX_ENUM"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _enum_limit(args) -> int | None:
    """``--max-n``, else the environment; None leaves ncpartition's default."""
    if getattr(args, "max_n", None) is not None:
        return args.max_n
    env = os.environ.get(ENV_LIMIT)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{ENV_LIMIT} must be an integer, got {env!r}")
    return None


def _emit(args, text_fn, payload: dict) -> None:
    if args.format == "json":
        envelope = {
            "config": {
                k: v for k, v in sorted(vars(args).items()) if k != "func"
            },
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "result": payload,
        }
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    else:
        print(text_fn())


def _parse_partition(n: int, text: str) -> NCPartition:
    text = text.strip()
    if not text:
        return NCPartition.empty(n)
    if text.startswith("{"):
        return BlockPartition.from_text(text, n).to_arcs()
    if ";" in text:
        partition = NCPartition.from_text(text)
        if partition.n != n:
            raise _UsageError(
                f"partition declares n={partition.n} but the command says n={n}"
            )
        return partition
    return NCPartition(n, parse_arcs(text))


def _load_word(args) -> ToggleWord:
    text = args.word if args.word_file is None else _read_text(args.word_file)
    return ToggleWord.from_text(args.n, text)


def _cmd_enumerate(args) -> int:
    limit = _enum_limit(args)
    count = len(enumerate_masks(args.n, limit))
    payload: dict = {"n": args.n, "count": count, "catalan": catalan(args.n)}
    if args.count_only:
        _emit(args, lambda: str(count), payload)
        return OK
    partitions = enumerate_nc(args.n, limit)
    if args.blocks:
        lines = [p.block_partition().to_text() for p in partitions]
    else:
        lines = [p.to_text() for p in partitions]
    payload["partitions"] = [p.to_json_dict() for p in partitions]
    _emit(args, lambda: "\n".join(lines), payload)
    return OK


def _cmd_toggle(args) -> int:
    partition = _parse_partition(args.n, args.partition)
    if args.arc is not None:
        arcs = parse_arcs(args.arc)
        if len(arcs) != 1:
            raise _UsageError(f"--arc expects one arc, got {args.arc!r}")
        result = toggle(partition, arcs[0])
    else:
        result = _load_word(args).apply(partition)
    payload = {"input": partition.to_json_dict(), "output": result.to_json_dict()}
    _emit(args, result.to_text, payload)
    return OK


def _cmd_orbits(args) -> int:
    word = _load_word(args)
    limit = _enum_limit(args)
    payload: dict = {"n": args.n, "word": word.to_text()}
    if args.sizes_only:
        sizes = sorted(orbit_sizes(word, limit))
        payload.update(orbit_count=len(sizes), sizes=sizes)
        _emit(args, lambda: " ".join(map(str, sizes)), payload)
        return OK
    orbit_list = orbits(word, limit)
    payload.update(
        orbit_count=len(orbit_list), sizes=sorted(o.size for o in orbit_list)
    )
    if args.format == "json":
        payload["orbits"] = [
            [p.to_json_dict()["arcs"] for p in o.elements] for o in orbit_list
        ]

    def render() -> str:
        lines = [f"word: {word.to_text()}", f"orbits: {len(orbit_list)}"]
        for idx, orbit in enumerate(orbit_list):
            chain = " -> ".join(
                "(" + " ".join(f"{i},{j}" for i, j in p.arcs()) + ")"
                for p in orbit.elements
            )
            lines.append(f"orbit {idx} (size {orbit.size}): {chain}")
        return "\n".join(lines)

    _emit(args, render, payload)
    return OK


def _cmd_homomesy(args) -> int:
    word = _load_word(args)
    stat = parse_statistic(args.stat)
    report = check_homomesy(word, stat, _enum_limit(args))
    _emit(args, report.to_text_table, report.to_json_dict())
    return OK if report.homomesic else FALSIFIED


def _cmd_kreweras(args) -> int:
    if args.oracle and (args.simion_ullman or args.power is not None):
        flag = "--simion-ullman" if args.simion_ullman else "--power"
        raise _UsageError(f"--oracle does not apply to {flag}")
    if args.max_n is not None and not args.oracle:
        raise _UsageError("--max-n applies only to --oracle")
    partition = _parse_partition(args.n, args.partition)
    if args.simion_ullman:
        result = simion_ullman(partition)
        label = "simion-ullman"
    elif args.prime:
        if args.oracle:
            result = kreweras_prime_oracle(partition, _enum_limit(args))
        else:
            result = kreweras_prime(partition)
        label = "prime"
    elif args.power is not None:
        result = kreweras_power(partition, args.power)
        label = f"power {args.power}"
    else:
        if args.oracle:
            result = kreweras_oracle(partition, _enum_limit(args))
        else:
            result = kreweras(partition)
        label = "complement"

    blocks = result.block_partition().to_text()
    layouts = {}
    if args.circular:
        layouts["circular"] = circular_text(result)
    if args.dot:
        layouts["dot"] = circular_dot(result)
    payload = {
        "input": partition.to_json_dict(),
        "operation": label,
        "output": result.to_json_dict(),
        "blocks": blocks,
        **layouts,
    }
    lines = [result.to_text(), blocks, *layouts.values()]
    _emit(args, lambda: "\n".join(lines), payload)
    return OK


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cliquish_graph(args, path: str):
    """The graph in ``path`` and its set U: ``--uset`` checked, else
    searched for.  U is None when the graph is not 2-cliquish."""
    graph = SimpleGraph.from_text(_read_text(path))
    if args.uset:
        by_name = {str(v): v for v in graph.vertices}
        u_set = frozenset(by_name[tok] for tok in args.uset.split() if tok in by_name)
        missing = [tok for tok in args.uset.split() if tok not in by_name]
        if missing:
            raise _UsageError(f"--uset names unknown vertices {missing}")
        if check_cliquish_with(graph, u_set) is None:
            raise _UsageError("--uset is not a valid 2-cliquish witness")
        return graph, u_set
    cert = is_2_cliquish(graph)
    return graph, None if cert is None else cert.u_set


def _not_cliquish(args, code: int) -> int:
    _emit(args, lambda: "not 2-cliquish", {"cliquish": False})
    return code


def _cmd_check_cliquish(args) -> int:
    cert = is_2_cliquish(SimpleGraph.from_text(_read_text(args.file)))
    if cert is None:
        return _not_cliquish(args, FALSIFIED)
    u_names = sorted(str(u) for u in cert.u_set)
    payload = {
        "cliquish": True,
        "U": u_names,
        "A": cert.A,
        "two_u_neighbors": {
            str(v): sorted(map(str, pair)) for v, pair in cert.u_neighbors.items()
        },
    }
    _emit(args, lambda: "2-cliquish with U = {" + " ".join(u_names) + "}", payload)
    return OK


def _cmd_skeletalize(args) -> int:
    graph, u_set = _cliquish_graph(args, args.file)
    if u_set is None:
        return _not_cliquish(args, PRECONDITION)
    result = skeletalize(graph, u_set)
    _emit(args, result.to_text, {"graph": result.to_text()})
    return OK


def _cmd_to_multigraph(args) -> int:
    graph, u_set = _cliquish_graph(args, args.file)
    if u_set is None:
        return _not_cliquish(args, PRECONDITION)
    multigraph = skeletal_to_multigraph(skeletalize(graph, u_set), u_set)
    summary = (
        f"|V| = {multigraph.n_vertices}, |E| = {multigraph.n_edges}, "
        f"|V|+|E| = {multigraph.n_vertices + multigraph.n_edges}"
    )
    payload = {
        "multigraph": multigraph.to_text(),
        "vertices": multigraph.n_vertices,
        "edges": multigraph.n_edges,
    }
    _emit(args, lambda: multigraph.to_text() + "\n" + summary, payload)
    return OK


def _cmd_from_multigraph(args) -> int:
    graph, u_set = multigraph_to_skeletal(Multigraph.from_text(_read_text(args.file)))
    u_names = sorted(str(u) for u in u_set)
    payload = {"graph": graph.to_text(), "U": u_names}
    _emit(
        args,
        lambda: graph.to_text() + "\nU = {" + " ".join(u_names) + "}",
        payload,
    )
    return OK


def _cmd_gen(args) -> int:
    graph, u_set = _cliquish_graph(args, args.from_skeletal)
    if u_set is None:
        return _not_cliquish(args, PRECONDITION)
    graphs = enumerate_2cliquish_from_skeletal(graph, u_set)
    payload = {"count": len(graphs), "graphs": [g.to_text() for g in graphs]}
    _emit(
        args,
        lambda: f"{len(graphs)} graphs up to isomorphism\n\n"
        + "\n\n".join(g.to_text() for g in graphs),
        payload,
    )
    return OK


def _cmd_verify_all(args) -> int:
    results = run_all(max_n=args.max_n, num_words=args.words, seed=args.seed)
    payload = {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(args, lambda: "\n".join(r.line() for r in results), payload)
    return OK if payload["all_passed"] else FALSIFIED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; it alone decides which options each
    command takes, and is built once per process."""
    parser = _Parser(prog="nctoggles", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, with_max_n=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_max_n:
            p.add_argument(
                "--max-n", type=int, default=None,
                help="enumeration ceiling override (env NCTOGGLES_MAX_ENUM)",
            )
        p.set_defaults(func=func)

    def word_options(p, *more):
        # Exactly one source of the toggles: argparse rejects none or two.
        group = p.add_mutually_exclusive_group(required=True)
        for flag in (*more, "--word", "--word-file"):
            group.add_argument(flag)

    p = sub.add_parser("enumerate", help="list noncrossing partitions of [n]")
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count-only", action="store_true")
    group.add_argument("--blocks", action="store_true")
    common(p, _cmd_enumerate)

    p = sub.add_parser("toggle", help="apply one toggle or a word to a partition")
    p.add_argument("n", type=int)
    p.add_argument("--partition", default="")
    word_options(p, "--arc")
    common(p, _cmd_toggle, with_max_n=False)

    p = sub.add_parser("orbits", help="orbit decomposition of a toggle word")
    p.add_argument("n", type=int)
    word_options(p)
    p.add_argument("--sizes-only", action="store_true")
    common(p, _cmd_orbits)

    p = sub.add_parser("homomesy", help="check a statistic for homomesy")
    p.add_argument("n", type=int)
    word_options(p)
    p.add_argument("--stat", required=True, help="alpha|beta|card|chi:i,j|psi:k")
    common(p, _cmd_homomesy)

    p = sub.add_parser("kreweras", help="Kreweras complement and relatives")
    p.add_argument("n", type=int)
    p.add_argument("--partition", default="")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--prime", action="store_true")
    group.add_argument("--simion-ullman", action="store_true")
    group.add_argument("--power", type=int, default=None)
    p.add_argument("--oracle", action="store_true", help="use the geometric search")
    p.add_argument("--circular", action="store_true")
    p.add_argument("--dot", action="store_true")
    common(p, _cmd_kreweras)

    graph = sub.add_parser("graph", help="2-cliquish and skeletal graph tools")
    actions = graph.add_subparsers(dest="action", required=True)
    graph_options = {
        "file": {"help": "the graph (for from-multigraph, the multigraph)"},
        "--from-skeletal": {"required": True, "metavar": "FILE"},
        "--uset": {"help": "pin the independent set U (space-separated labels)"},
    }
    for name, func, options, help_text in (
        ("check-cliquish", _cmd_check_cliquish, ("file",),
         "search for a 2-cliquish set U"),
        ("skeletalize", _cmd_skeletalize, ("file", "--uset"),
         "remove every removable edge"),
        ("to-multigraph", _cmd_to_multigraph, ("file", "--uset"),
         "collapse to the multigraph"),
        ("from-multigraph", _cmd_from_multigraph, ("file",),
         "expand into the skeletal graph"),
        ("gen", _cmd_gen, ("--from-skeletal", "--uset"),
         "all 2-cliquish graphs over a skeletal one"),
    ):
        p = actions.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **graph_options[option])
        common(p, func, with_max_n=False)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--words", type=int, default=DEFAULT_WORDS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, _cmd_verify_all, with_max_n=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (EnumerationLimitError, GraphSizeError, EngineRefusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
