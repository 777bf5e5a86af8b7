"""Command-line interface.

Subcommands: gen, compute, verify, collide, selftest.  Exit codes:
0 success, 1 collision found or identity failure, 2 usage or parse
error, 3 capacity exceeded.  All output except elapsed-time fields is
deterministic for a fixed command line.  Each subcommand imports the
modules it runs, so a process loads only what its command needs.
"""

import argparse
import sys

from .errors import CapacityError, GraphParseError, NotATreeError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _cmd_gen(args) -> int:
    from .enumeration import classify, enumerate_trees, enumerate_unicyclic
    from .formats import format_graph6
    if args.graph_class == "unicyclic":
        graphs = enumerate_unicyclic(args.n)
    else:
        graphs = enumerate_trees(args.n)
        if args.graph_class in ("spiders", "two-branch"):
            wanted = "spider" if args.graph_class == "spiders" else "two-branch"
            graphs = (t for t in graphs if classify(t) == wanted)
    for g in graphs:
        print(format_graph6(g))
    return EXIT_OK


def _cmd_compute(args) -> int:
    import json
    from .formats import load_graph
    from .verify import compute_report
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_graph(fh.read())
    doc = compute_report(g, args.what)
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.what == "transform" and not doc["equal"]:
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .reports import write_reports
    from .verify import verify_distinct
    reports = verify_distinct(args.max_n, jobs=args.jobs)
    for rep in reports:
        print(f"n={rep.order} trees={rep.tree_count} "
              f"distinct={rep.distinct_csf_count} "
              f"collisions={len(rep.collisions)} ({rep.elapsed_ms} ms)")
    if args.report:
        paths = write_reports(reports, args.report)
        print(f"wrote {len(paths)} report files to {args.report}")
    if any(rep.collisions for rep in reports):
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_collide(args) -> int:
    from .verify import find_collisions
    pairs = find_collisions(args.graph_class, args.n)
    for a, b, _ in pairs:
        print(f"{a} {b}")
    print(f"{len(pairs)} colliding pair(s) among {args.graph_class} graphs of order {args.n}")
    return EXIT_FAILURE if pairs else EXIT_OK


def _cmd_selftest(args) -> int:
    from .verify import selftest
    ok, results = selftest(max_n=args.max_n)
    for name, passed, cx in results:
        if passed:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name} counterexample={cx}")
    return EXIT_OK if ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csfkit",
        description="Chromatic symmetric functions of weighted graphs and tree invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph class in graph6, one per line")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=["trees", "unicyclic", "spiders", "two-branch"])
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compute", help="compute CSF or tree invariants for one graph")
    p.add_argument("--input", required=True, help="edge-list or graph6 file")
    p.add_argument("--what", required=True, choices=["csf", "invariants", "transform"])
    p.add_argument("--json", help="also write the JSON document to this path")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="exhaustive tree-CSF distinctness check")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="directory for per-order JSON and a CSV summary")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("collide", help="search a graph class for equal-CSF pairs")
    p.add_argument("--class", dest="graph_class", required=True, choices=["unicyclic"])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("selftest", help="run the named identity checks")
    p.add_argument("--max-n", type=int, default=7,
                   help="bound on the tree corpora (default 7)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (GraphParseError, NotATreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
