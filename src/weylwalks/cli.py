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
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import WeylWalksError
from .rootdata import cartan_type
# acceptance, boundary and montecarlo (and numpy with them) are imported by the
# branches that use them, so the exact subcommands start without numpy
from . import chars, paths, polytope

ENV_DIM_CAP = "WEYLWALKS_DIM_CAP"
ENV_LEVEL_CAP = "WEYLWALKS_LEVEL_CAP"


@dataclass
class RunConfig:
    command: str
    family: str = ""
    rank: int = 0
    delta: tuple = ()
    params: dict = field(default_factory=dict)
    seed: int = None
    fmt: str = "json"


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


def _env_int(name, default):
    value = os.environ.get(name)
    try:
        return int(value) if value else default
    except ValueError:
        sys.stderr.write(f"weylwalks: error: {name} must be an integer, got {value!r}\n")
        raise SystemExit(2)


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
        "--dim-cap", type=int, default=_env_int(ENV_DIM_CAP, chars.DEFAULT_DIM_CAP))

    gr = top.add_parser("graph", help="growth graphs")
    gr_sub = gr.add_subparsers(dest="verb", required=True)
    g = _add_common(gr_sub.add_parser("build"))
    g.add_argument("--kind", choices=("free", "chamber"), required=True)
    g.add_argument("--nmax", type=int, required=True)
    g.add_argument("--level-cap", type=int,
                   default=_env_int(ENV_LEVEL_CAP, paths.DEFAULT_LEVEL_CAP))

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


def parse(argv) -> RunConfig:
    """argv -> validated RunConfig; argparse exits with code 2 on bad usage."""
    ns = build_parser().parse_args(argv)
    if ns.group == "verify":
        if ns.suite == "all":
            criteria = None
        else:
            try:
                criteria = [int(x) for x in ns.suite.split(",")]
            except ValueError:
                build_parser().error(f"cannot parse --suite {ns.suite!r}")
            unknown = [c for c in criteria if not 1 <= c <= 10]
            if unknown:
                build_parser().error(f"unknown criteria {unknown}")
        if ns.type_filter is not None:
            from . import acceptance

            suite_types = list(dict.fromkeys(tok for tok, _, _ in acceptance.suite_deltas()))
            if ns.type_filter not in suite_types:
                build_parser().error(f"--type must be a suite type {suite_types}, "
                                     f"got {ns.type_filter!r}")
        return RunConfig(command="verify",
                         params={"criteria": criteria, "types": ns.type_filter})
    for key in ("steps", "nmax", "n", "seed"):
        if getattr(ns, key, 0) < 0:
            build_parser().error(f"--{key} must be nonnegative, got {getattr(ns, key)}")
    for key, env in (("dim_cap", ENV_DIM_CAP), ("level_cap", ENV_LEVEL_CAP)):
        if getattr(ns, key, 1) < 1:
            build_parser().error(f"--{key.replace('_', '-')} (default from {env}) must be "
                                 f"at least 1, got {getattr(ns, key)}")
    cartan = ns.cartan
    command = ns.group if ns.group == "sample" else f"{ns.group}-{ns.verb}"
    delta = ()
    if getattr(ns, "delta", None) is not None:
        delta = _broadcast(ns.delta, cartan.rank, "--delta")
    params = {}
    for key in ("kind", "nmax", "mode", "lam", "n", "m", "steps", "dim_cap", "level_cap"):
        if hasattr(ns, key):
            params[key] = getattr(ns, key)
    if "m" in params:
        params["m"] = _broadcast(params["m"], cartan.rank, "--m")
    if params.get("lam") is not None:
        params["lam"] = _broadcast(params["lam"], cartan.rank, "--lambda")
    return RunConfig(
        command=command, family=cartan.family, rank=cartan.rank,
        delta=delta, params=params, seed=getattr(ns, "seed", None),
        fmt=getattr(ns, "fmt", "json"),
    )


def _broadcast(coords, rank, flag):
    if len(coords) == 1 and rank > 1:
        coords = coords * rank
    if len(coords) != rank:
        build_parser().error(f"{flag} needs {rank} coordinates, got {len(coords)}")
    return coords


def _emit(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    if config.command == "verify":
        from . import acceptance

        results = acceptance.run_acceptance(
            criteria=config.params["criteria"],
            types=[config.params["types"]] if config.params["types"] else None,
        )
        for r in results:
            print(r.line(), file=sys.stderr)
        print(_emit([r.to_jsonable() for r in results]))
        return 0 if all(r.passed for r in results) else 1

    cartan = cartan_type(f"{config.family}{config.rank}")
    delta = chars.check_weight(cartan, config.delta) if config.delta else None
    p = config.params

    if config.command == "root-info":
        print(cartan.to_json())
        return 0

    if config.command == "crystal-build":
        cb = paths.generate_crystal(cartan, delta, dim_cap=p["dim_cap"])
        doc = {
            "size": len(cb.paths),
            "endpoints": [[str(c) for c in e] for e in cb.endpoints()],
            "dot": paths.crystal_to_dot(cb),
        }
        print(_emit(doc))
        return 0

    if config.command == "graph-build":
        g = paths.build_growth_graph(cartan, p["kind"], delta, p["nmax"],
                                     level_cap=p["level_cap"])
        print(_emit({"kind": g.kind, "levels": paths.graph_levels_jsonable(g)}))
        return 0

    if config.command == "polytope-faces":
        faces = polytope.dominant_faces(cartan, delta)
        print(_emit(polytope.face_lattice_jsonable(faces)))
        return 0

    from . import boundary

    if config.command == "drift-invert":
        pt = boundary.invert_drift(cartan, delta, p["m"])
        print(_emit(pt.to_jsonable()))
        return 0

    if config.command == "measure-eval":
        meas = boundary.central_measure(cartan, delta, p["mode"], p["m"])
        lam = p["lam"] or delta
        if config.fmt == "csv":
            print(boundary.kernel_rows_csv(meas, [lam]), end="")
            return 0
        doc = meas.to_jsonable()
        doc["lambda"] = [str(c) for c in lam]
        doc["n"] = p["n"]
        doc["p"] = repr(meas.p(lam, p["n"]))
        doc["kernel_row"] = {
            " ".join(str(c) for c in mu): repr(q)
            for mu, q in sorted(meas.kernel_row(lam).items())
        }
        print(_emit(doc))
        return 0

    if config.command == "sample":
        from . import montecarlo

        meas = boundary.central_measure(cartan, delta, p["mode"], p["m"])
        traj = montecarlo.sample_trajectory(meas, p["steps"], seed=config.seed)
        if config.fmt == "csv":
            print(montecarlo.trajectory_csv(traj), end="")
            return 0
        print(_emit({
            "letters": list(traj.letters),
            "positions": [[str(c) for c in pos] for pos in traj.positions],
            "seed": config.seed,
        }))
        return 0

    raise AssertionError(f"unhandled command {config.command}")


def main(argv=None) -> int:
    config = parse(sys.argv[1:] if argv is None else argv)
    try:
        return run(config)
    except WeylWalksError as exc:
        print(_emit({"error": type(exc).__name__, "detail": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
