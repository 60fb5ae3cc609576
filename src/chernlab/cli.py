"""Command line interface.

  chernlab validate <instance.json>
  chernlab suite [-c config.json] [--group G] [--seed S] [--fast] [--stable] [-o report.json]
  chernlab pair -m module.json -g g.json --nmax K [-o report.json]
  chernlab explain report.json ID
  chernlab fixture NAME [--seed S] [-o out.json]

The suite runs its groups on one worker thread per usable CPU; the
report does not depend on the worker count.

Exit codes: 0 pass, 1 verification failure, 2 usage, config or input
error.  A malformed instance JSON ("bad input: ...") and an input that
pairing refuses ("pairing refused: ...": a module failing its axioms, a
non-finite or singular g, N_max < 1, an uncertified tail) each print one
stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _bad_input(exc) -> int:
    """Report an instance JSON that does not parse into its object."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else " ".join(str(exc).split())
    print(f"bad input: {what}", file=sys.stderr)
    return 2


# what building an object from well-formed JSON of the wrong content raises
# (OverflowError: an integer too large for an index array)
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def cmd_validate(args) -> int:
    from .algebra import DgAlgebra, dga_validate
    from .fredholm import module_validate
    from .serialize import module_from_json

    data = _load(args.instance)
    try:
        if "kind" in data and data["kind"] in ("cq-module", "odd-module"):
            instance, validate = module_from_json(data), module_validate
        elif "mul" in data:
            instance, validate = DgAlgebra.from_json_dict(data), dga_validate
        else:
            print("unrecognized instance schema", file=sys.stderr)
            return 2
    except _MALFORMED as exc:
        return _bad_input(exc)
    rep = validate(instance)
    print(rep.summary())
    return 0 if rep.passed else 1


def cmd_suite(args) -> int:
    from .serialize import dump_json
    from .suite import SuiteConfig, run_suite, summarize

    data = _load(args.config) if args.config else {}
    if args.seed is not None:
        data["seed"] = args.seed
    if args.group:
        data["groups"] = args.group
    if args.fast:
        data["fast"] = True
    try:
        cfg = SuiteConfig.from_json(data)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(cfg)
    if args.stable:
        report = dict(report)
        report.pop("volatile", None)
    if args.output:
        dump_json(report, args.output)
        print(f"wrote {args.output}")
    summary = summarize(report) if not args.stable else json.dumps({"passed": report["passed"]})
    print(summary)
    return 0 if report["passed"] else 1


def cmd_pair(args) -> int:
    from .algebra import AlgebraError, MatrixElement
    from .fredholm import ModuleError, module_validate
    from .serialize import dump_json, matrix_from_json, module_from_json
    from .spectral import SpectralError, pairing

    try:
        module = module_from_json(_load(args.module))
        entries = np.stack([
            np.stack([matrix_from_json(cell).reshape(-1) if isinstance(cell, dict) else
                      np.array([complex(re, im) for re, im in cell]) for cell in row])
            for row in _load(args.g)["entries"]
        ])
    except _MALFORMED as exc:
        return _bad_input(exc)
    try:
        checked = module_validate(module)
        if not checked.passed:
            raise ModuleError("module fails " + ", ".join(c.check_id for c in checked.failing()))
        if not np.isfinite(entries).all():
            raise SpectralError("g has a non-finite entry")
        g = MatrixElement(entries, module.alg)
        rep = pairing(module, g, N_max=args.nmax)
    except (AlgebraError, SpectralError, ModuleError) as exc:
        # a refused input is not a verification failure
        print(f"pairing refused: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    out = rep.as_dict()
    if args.output:
        dump_json(out, args.output)
        print(f"wrote {args.output}")
    print(rep.checks.summary())
    print(f"pairing total: {rep.pairing_total}")
    print(f"sf integral:   {rep.sf_direct} (direct), {rep.sf_series} (series)")
    print(f"certified tail: {rep.tail_bound:.3e}")
    return 0 if rep.verdict else 1


def cmd_explain(args) -> int:
    from .suite import explain

    try:
        print(explain(_load(args.report), args.item_id))
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_fixture(args) -> int:
    from .fixtures import gen_fixture_json

    params = json.loads(args.params) if args.params else {}
    try:
        text = gen_fixture_json(args.name, params, seed=args.seed)
    except Exception as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser():
    from .suite import GROUPS

    parser = argparse.ArgumentParser(prog="chernlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra or module instance")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("suite", help="run verification groups")
    p.add_argument("-c", "--config", default=None)
    p.add_argument("--group", action="append", choices=GROUPS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--fast", action="store_true", help="trimmed sample counts")
    p.add_argument("--stable", action="store_true", help="omit timings for byte-stable output")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("pair", help="pair a module with the character of g")
    p.add_argument("-m", "--module", required=True)
    p.add_argument("-g", "--g", required=True)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("explain", help="look up one check in a stored report")
    p.add_argument("report")
    p.add_argument("item_id")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("fixture", help="generate a named fixture as JSON")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="JSON dict of generator parameters")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fixture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"bad JSON input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
