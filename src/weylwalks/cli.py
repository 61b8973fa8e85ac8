"""Command-line surface: every operation reachable as a subcommand with
machine-readable output (JSON by default, CSV where a row shape is natural).

Subcommands: root info | crystal build | graph build | polytope faces |
measure eval | drift invert | sample | verify.  Exit codes: 0 success,
1 failed verification, 2 usage or domain errors (domain errors print a
structured JSON object on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from .errors import DEFAULT_DIM_CAP, DEFAULT_LEVEL_CAP, WeylWalksError
from .rootdata import cartan_type
# the layers (and numpy with the float ones) are imported by the branches that
# use them, so `root info` loads rootdata alone and the exact subcommands start
# without numpy


def _token(token: str, decimal):
    """Integers and p/q as exact Fractions, decimals through `decimal`."""
    token = token.strip()
    try:
        if "/" in token or ("." not in token and "e" not in token.lower()):
            return Fraction(token)
        return decimal(Fraction(float(token)))  # Fraction rejects inf and nan
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"cannot parse coordinate {token!r}")


def _coords(text: str, decimal=Fraction) -> tuple:
    return tuple(_token(tok, decimal) for tok in text.split(","))


# decimal drift targets stay floats, which the polytope layer snaps at 1e-9
_drift_coords = partial(_coords, decimal=float)


def _cartan_token(text: str):
    try:
        return cartan_type(text)
    except WeylWalksError:
        raise argparse.ArgumentTypeError(f"unsupported Cartan type token {text!r}")


def _add_common(sub, need_delta=True):
    sub.add_argument("--type", dest="cartan", type=_cartan_token, required=True,
                     help="Cartan type token, e.g. A2, B2, G2")
    if need_delta:
        sub.add_argument("--delta", type=_coords, required=True,
                         help="highest weight, omega-coordinates, e.g. 1,0")
    return sub


def _add_format(sub):
    """--format, for the subcommands with a CSV form (measure eval, sample)."""
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylwalks",
        description="Growth graphs of random Littelmann paths, central "
                    "measures and weight polytopes",
    )
    top = parser.add_subparsers(dest="group", required=True)

    root = top.add_parser("root", help="root-system data")
    root_sub = root.add_subparsers(dest="verb", required=True)
    _add_common(root_sub.add_parser("info"), need_delta=False)

    cry = top.add_parser("crystal", help="the path crystal B(delta)")
    cry_sub = cry.add_subparsers(dest="verb", required=True)
    _add_common(cry_sub.add_parser("build")).add_argument(
        "--dim-cap", type=int, default=DEFAULT_DIM_CAP)

    gr = top.add_parser("graph", help="growth graphs")
    gr_sub = gr.add_subparsers(dest="verb", required=True)
    g = _add_common(gr_sub.add_parser("build"))
    g.add_argument("--kind", choices=("free", "chamber"), required=True)
    g.add_argument("--nmax", type=int, required=True)
    g.add_argument("--level-cap", type=int, default=DEFAULT_LEVEL_CAP)

    poly = top.add_parser("polytope", help="the weight polytope K(delta)")
    poly_sub = poly.add_subparsers(dest="verb", required=True)
    _add_common(poly_sub.add_parser("faces"))

    meas = top.add_parser("measure", help="central measures")
    meas_sub = meas.add_subparsers(dest="verb", required=True)
    me = meas_sub.add_parser("eval")
    _add_common(me)
    _add_format(me)
    me.add_argument("--mode", choices=("free", "chamber"), required=True)
    me.add_argument("--m", type=_drift_coords, required=True, help="drift target")
    me.add_argument("--lambda", dest="lam", type=_coords)
    me.add_argument("--n", type=int, default=1)

    dr = top.add_parser("drift", help="the drift map")
    dr_sub = dr.add_subparsers(dest="verb", required=True)
    di = dr_sub.add_parser("invert")
    _add_common(di)
    di.add_argument("--m", type=_drift_coords, required=True)

    sa = top.add_parser("sample", help="sample a random walk")
    _add_common(sa)
    _add_format(sa)
    sa.add_argument("--mode", choices=("free", "chamber"), required=True)
    sa.add_argument("--m", type=_drift_coords, required=True)
    sa.add_argument("--steps", type=int, required=True)
    sa.add_argument("--seed", type=int, required=True)

    ve = top.add_parser("verify", help="run the verification suite")
    ve.add_argument("--suite", default="all",
                    help="'all' or comma list of criterion numbers 1..10")
    ve.add_argument("--type", dest="type_filter", default=None,
                    help="restrict to one suite type, e.g. A1")
    return parser


def parse(argv) -> argparse.Namespace:
    """argv -> validated namespace, coordinates broadcast to the rank; argparse
    exits with code 2 on bad usage."""
    parser = build_parser()
    # the token after a coordinate flag, or an abbreviation of one that argparse
    # accepts, is its value, so that argparse does not take a list such as
    # -0.2,0.1 for an option: glue it on as --m=-0.2,0.1
    tokens = []
    for token in argv:
        if tokens and len(tokens[-1]) >= 3 and any(
                flag.startswith(tokens[-1]) for flag in ("--delta", "--m", "--lambda")):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = parser.parse_args(tokens)
    if args.group == "verify":
        args.criteria = None
        if args.suite != "all":
            try:
                args.criteria = [int(x) for x in args.suite.split(",")]
            except ValueError:
                parser.error(f"cannot parse --suite {args.suite!r}")
            unknown = [c for c in args.criteria if not 1 <= c <= 10]
            if unknown:
                parser.error(f"unknown criteria {unknown}")
        if args.type_filter is not None:
            from . import acceptance

            suite_types = list(dict.fromkeys(tok for tok, _, _ in acceptance.suite_deltas()))
            if args.type_filter not in suite_types:
                parser.error(f"--type must be a suite type {suite_types}, "
                             f"got {args.type_filter!r}")
        return args
    for key in ("steps", "nmax", "n", "seed"):
        if getattr(args, key, 0) < 0:
            parser.error(f"--{key} must be nonnegative, got {getattr(args, key)}")
    for key in ("dim_cap", "level_cap"):
        if getattr(args, key, 1) < 1:
            parser.error(f"--{key.replace('_', '-')} must be at least 1, got {getattr(args, key)}")
    rank = args.cartan.rank
    for key, flag in (("delta", "--delta"), ("m", "--m"), ("lam", "--lambda")):
        coords = getattr(args, key, None)
        if coords is None:
            continue
        if len(coords) == 1:
            coords *= rank
        if len(coords) != rank:
            parser.error(f"{flag} needs {rank} coordinates, got {len(coords)}")
        setattr(args, key, coords)
    return args


def _emit(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _plain(value):
    """A diagnostics value with every float (numpy's included) as its repr, as
    the CLI prints floats, so the JSON stays strict at inf and nan."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def run(args: argparse.Namespace) -> int:
    """Execute a parsed namespace; returns the process exit code."""
    if args.group == "verify":
        from . import acceptance

        results = acceptance.run_acceptance(
            criteria=args.criteria, types=[args.type_filter] if args.type_filter else None)
        for r in results:
            print(r.line(), file=sys.stderr)
        print(_emit([r.to_jsonable() for r in results]))
        return 0 if all(r.passed for r in results) else 1

    cartan = args.cartan
    if args.group == "root":
        print(cartan.to_json())
        return 0

    from . import chars

    delta = chars.check_weight(cartan, args.delta)

    if args.group == "crystal":
        from . import paths

        cb = paths.generate_crystal(cartan, delta, dim_cap=args.dim_cap)
        doc = {
            "size": len(cb.paths),
            "endpoints": [[str(c) for c in e] for e in cb.endpoints()],
            "dot": paths.crystal_to_dot(cb),
        }
        print(_emit(doc))
        return 0

    if args.group == "graph":
        from . import paths

        g = paths.build_growth_graph(cartan, args.kind, delta, args.nmax,
                                     level_cap=args.level_cap)
        print(_emit({"kind": g.kind, "levels": paths.graph_levels_jsonable(g)}))
        return 0

    if args.group == "polytope":
        from . import polytope

        faces = polytope.dominant_faces(cartan, delta)
        print(_emit(polytope.face_lattice_jsonable(faces)))
        return 0

    from . import boundary

    if args.group == "drift":
        pt = boundary.invert_drift(cartan, delta, args.m)
        print(_emit(pt.to_jsonable()))
        return 0

    meas = boundary.central_measure(cartan, delta, args.mode, args.m)
    if args.group == "measure":
        lam = args.lam or delta
        if args.fmt == "csv":
            print(boundary.kernel_rows_csv(meas, [lam]), end="")
            return 0
        doc = meas.to_jsonable()
        doc["lambda"] = [str(c) for c in lam]
        doc["n"] = args.n
        doc["p"] = repr(meas.p(lam, args.n))
        doc["kernel_row"] = {
            " ".join(str(c) for c in mu): repr(q)
            for mu, q in sorted(meas.kernel_row(lam).items())
        }
        print(_emit(doc))
        return 0

    from . import montecarlo  # the group left is sample

    traj = montecarlo.sample_trajectory(meas, args.steps, seed=args.seed)
    if args.fmt == "csv":
        print(montecarlo.trajectory_csv(traj), end="")
        return 0
    print(_emit({
        "letters": list(traj.letters),
        "positions": [[str(c) for c in pos] for pos in traj.positions],
        "seed": args.seed,
    }))
    return 0


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except WeylWalksError as exc:
        doc = {"error": type(exc).__name__, "detail": str(exc)}
        if getattr(exc, "diagnostics", None):
            doc["diagnostics"] = {k: _plain(v) for k, v in exc.diagnostics.items()}
        print(_emit(doc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
