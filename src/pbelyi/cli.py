"""Command-line front end for bounds, constructions, verification, counting, search.

One invocation prints one result.  With --json a single JSON document goes
to standard output, carrying the fully resolved configuration (seed and
worker count included), so identical invocations are byte-identical.  Exit
codes: 0 success, 2 rejected input or a guard, 1 internal failure.
"""

import argparse
import json
import sys
from fractions import Fraction

from .bounds import _decimal_digits, field_size_check, tame_bound, tame_threshold, wild_bound
from .constructions import (
    BelyiInstance,
    CoveringDescriptor,
    tame_pipeline,
    tame_power_map,
    tame_reduce_recursive,
    wild_belyi_compose,
)
from .counting import (
    enumerate_effective_divisors,
    parse_curve,
    point_counts,
    sym_product_count,
    zeta_fit,
)
from .errors import InternalInconsistencyError, PreconditionError, check_int, check_size
from .factor import DEFAULT_SEED
from .field import parse_field
from .ramification import is_simple_covering, verify_tame_belyi, verify_wild_belyi
from .ratmap import as_point, parse_point_set, parse_ratmap
from .search import DEFAULT_BUDGET, SearchSpec, minimal_belyi_degree


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbelyi",
        description="exact Belyi-map toolkit for the projective line over small odd fields",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized search")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    parser.add_argument(
        "--guard-override",
        type=int,
        default=None,
        help="replace the digit/work guards where the operation supports one",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate the explicit degree bounds")
    bsub = bound.add_subparsers(dest="variant", required=True)
    b_tame = bsub.add_parser("tame", help="tame degree bound for (g, s, t) over F_q")
    for flag in ("--g", "--s", "--t", "--q"):
        b_tame.add_argument(flag, type=int, required=True)
    b_wild = bsub.add_parser("wild", help="wild degree bound N p^(s+2(g+N))")
    for flag in ("--g", "--s", "--t", "--p"):
        b_wild.add_argument(flag, type=int, required=True)
    b_thr = bsub.add_parser("threshold", help="field-size threshold for the tame bound")
    for flag in ("--g", "--s", "--t"):
        b_thr.add_argument(flag, type=int, required=True)
    b_fs = bsub.add_parser("field-size", help="check q against the size hypothesis")
    for flag in ("--q", "--A", "--g", "--n", "--s"):
        b_fs.add_argument(flag, type=int, required=True)
    b_fs.add_argument("--t", type=int, default=None)

    verify = sub.add_parser("verify", help="verify a map against the covering conditions")
    vsub = verify.add_subparsers(dest="variant", required=True)
    for name, help_text in (
        ("tame", "branch set in {0,1,inf}, all indices prime to p"),
        ("wild", "all branching over inf"),
        ("simple", "every index 2, one ramified point per branch point"),
    ):
        vp = vsub.add_parser(name, help=help_text)
        vp.add_argument("--q", required=True, help="field, e.g. 5 or 3^2 or 3^2/1,0,1")
        vp.add_argument("--map", required=True, help="poly=... or num=.../den=...")
        if name != "simple":
            vp.add_argument("--S", default="none", help="marked points; 'all' allowed")
            vp.add_argument("--T", default="none", help="avoided points")

    construct = sub.add_parser("construct", help="build a map with a fresh verdict")
    csub = construct.add_subparsers(dest="variant", required=True)
    c_pow = csub.add_parser("tame-power", help="x^(q-1) marked on every rational point")
    c_pow.add_argument("--q", required=True)
    c_red = csub.add_parser("tame-reduce", help="merge marked points down to {0,1,inf}")
    c_red.add_argument("--q", required=True)
    c_red.add_argument("--S", required=True)
    c_red.add_argument("--tau", required=True, help="tracking point kept off {0,1,inf}")
    c_wild = csub.add_parser("wild", help="additive tower composed with a pole map")
    c_wild.add_argument("--q", required=True)
    c_wild.add_argument("--S", default="none")
    c_wild.add_argument("--T", default="none")
    c_pipe = csub.add_parser("pipeline", help="scalar extension plus tame reduction")
    c_pipe.add_argument("--q", required=True)
    c_pipe.add_argument("--S", default="none")
    c_pipe.add_argument("--T", default="none")
    c_pipe.add_argument("--map", default=None, help="source covering; identity when absent")

    count = sub.add_parser("count", help="point and divisor counts, zeta data")
    ksub = count.add_subparsers(dest="variant", required=True)
    k_pts = ksub.add_parser("points", help="N_m for m = 1..M")
    k_pts.add_argument("--curve", required=True, help="p1/<field> or hyp/<field>/<coeffs>")
    k_pts.add_argument("--m", type=int, default=1)
    k_zeta = ksub.add_parser("zeta", help="numerator coefficients fitted from N_1..N_g")
    k_zeta.add_argument("--curve", required=True)
    k_zeta.add_argument("--predict", type=int, default=3)
    for name in ("sym", "divisors"):
        kp = ksub.add_parser(
            name,
            help="degree-r points of the symmetric product"
            if name == "sym"
            else "effective divisors of degree r, enumerated",
        )
        kp.add_argument("--curve", required=True)
        kp.add_argument("--r", type=int, required=True)

    search = sub.add_parser("search", help="minimal-degree witness search")
    ssub = search.add_subparsers(dest="variant", required=True)
    for name in ("tame", "wild"):
        sp = ssub.add_parser(name)
        sp.add_argument("--q", required=True)
        sp.add_argument("--S", default="none")
        sp.add_argument("--T", default="none")
        sp.add_argument("--d-max", type=int, required=True)
        sp.add_argument("--fields", default=None, help="comma list of fields; default q,q^2")
        sp.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    return parser


def _frac(value: Fraction) -> dict:
    """A threshold as {num, den}, refused when a part has more digits than str() prints."""
    digits = max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))
    # 0 when the interpreter has no limit; before 3.10.7 there is neither limit nor function
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or digits
    check_size(
        "the threshold has a numerator or denominator of {} decimal digits", digits, 1,
        limit, "raise the interpreter's int_max_str_digits (-X int_max_str_digits=N or PYTHONINTMAXSTRDIGITS)",
    )
    return {"num": value.numerator, "den": value.denominator}


def _guard(args, name) -> dict:  # the library's default guard unless --guard-override is given
    return {} if args.guard_override is None else {name: args.guard_override}


def _base_config(args) -> dict:
    return {
        "command": f"{args.command} {args.variant}",
        "json": bool(args.json),
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
        "workers": args.workers,
        "guard_override": args.guard_override,
    }


def _point_sets(args, field, config):
    """The --S and --T point sets, echoed into config."""
    S = parse_point_set(field, args.S)
    T = parse_point_set(field, args.T)
    config.update(S=[str(p) for p in S], T=[str(p) for p in T])
    return S, T


def _verdict_doc(verdict) -> dict:
    doc = verdict.to_dict()
    doc["report"] = verdict.report.to_dict() if verdict.report is not None else None
    return doc


def _flat_lines(doc, prefix=""):
    lines = []
    for key in doc:
        val = doc[key]
        if isinstance(val, dict):
            lines.extend(_flat_lines(val, f"{prefix}{key}."))
        elif isinstance(val, (list, tuple)):
            lines.append(f"{prefix}{key}: {json.dumps(val)}")
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


def _cmd_bound(args):
    config = _base_config(args)
    if args.variant == "tame":
        config.update(g=args.g, s=args.s, t=args.t, q=args.q)
        doc = tame_bound(args.g, args.s, args.t, args.q, **_guard(args, "digit_guard")).to_dict()
    elif args.variant == "wild":
        config.update(g=args.g, s=args.s, t=args.t, p=args.p)
        doc = wild_bound(args.g, args.s, args.t, args.p, **_guard(args, "digit_guard")).to_dict()
    elif args.variant == "threshold":
        config.update(g=args.g, s=args.s, t=args.t)
        doc = {"threshold": _frac(tame_threshold(args.g, args.s, args.t))}
    else:
        config.update(q=args.q, A=args.A, g=args.g, n=args.n, s=args.s, t=args.t)
        outcome = field_size_check(args.q, args.A, args.g, args.n, args.s, t=args.t)
        doc = {"ok": outcome["ok"], "threshold": _frac(outcome["threshold"])}
    doc["config"] = config
    return doc


def _cmd_verify(args):
    field = parse_field(args.q)
    f = parse_ratmap(field, args.map)
    config = _base_config(args)
    config.update(field=str(field), map=str(f))
    if args.variant == "simple":
        verdict = is_simple_covering(f)
    else:
        S, T = _point_sets(args, field, config)
        checker = verify_tame_belyi if args.variant == "tame" else verify_wild_belyi
        verdict = checker(f, S, T)
    doc = _verdict_doc(verdict)
    doc["config"] = config
    return doc


def _pipeline_doc(rec) -> dict:
    return {
        "m": rec["m"],
        "L": rec["L"],
        "threshold": _frac(rec["threshold"]),
        "extension_field": str(rec["extension_field"]),
        "s_prime": rec["s_prime"],
        "S_prime": [str(p) for p in rec["S_prime"]],
        "tau0": None if rec["tau0"] is None else str(rec["tau0"]),
        "total_degree": rec["total_degree"],
        "xi": rec["xi"].to_dict(),
        "composite": None if rec["composite"] is None else rec["composite"].to_dict(),
    }


def _cmd_construct(args):
    field = parse_field(args.q)
    config = _base_config(args)
    config.update(field=str(field))
    if args.variant == "tame-power":
        doc = tame_power_map(field).to_dict()
    elif args.variant == "tame-reduce":
        S = parse_point_set(field, args.S)
        tau = as_point(field, args.tau)
        config.update(S=[str(p) for p in S], tau=str(tau))
        doc = tame_reduce_recursive(BelyiInstance(field, S, ()), tau).to_dict()
    elif args.variant == "wild":
        S, T = _point_sets(args, field, config)
        doc = wild_belyi_compose(BelyiInstance(field, S, T)).to_dict()
    else:
        S, T = _point_sets(args, field, config)
        if args.map is None:
            desc = CoveringDescriptor.identity(field, S=S, T=T)
        else:
            desc = CoveringDescriptor.from_map(parse_ratmap(field, args.map), S=S, T=T)
            config.update(map=str(desc.map))
        doc = _pipeline_doc(tame_pipeline(desc, S=S, T=T))
    doc["config"] = config
    return doc


def _cmd_count(args):
    curve = parse_curve(args.curve)
    config = _base_config(args)
    config.update(curve=str(curve))
    doc = {"curve": str(curve), "genus": curve.genus}
    guard = _guard(args, "guard")
    if args.variant == "points":
        config.update(m=check_int("--m", args.m, 1))
        counts = point_counts(curve, args.m, workers=args.workers, **guard)
        doc["counts"] = {str(m): n for m, n in counts.items()}
    elif args.variant == "zeta":
        config.update(predict=check_int("--predict", args.predict, 1))
        data = zeta_fit(curve, workers=args.workers, **guard)
        doc["zeta"] = data.to_dict()
        doc["predictions"] = {str(m): data.predict_N(m) for m in range(1, args.predict + 1)}
    elif args.variant == "sym":
        config.update(r=args.r)
        counts = point_counts(curve, args.r, workers=args.workers, **guard)
        doc["r"] = args.r
        doc["value"] = sym_product_count(counts, args.r)
    else:
        config.update(r=args.r)
        doc["r"] = args.r
        doc["value"] = enumerate_effective_divisors(curve, args.r, workers=args.workers, **guard)
    doc["config"] = config
    return doc


def _cmd_search(args):
    field = parse_field(args.q)
    config = _base_config(args)
    config.update(field=str(field))
    S, T = _point_sets(args, field, config)
    fields = None
    if args.fields is not None:
        fields = tuple(parse_field(tok) for tok in args.fields.split(",") if tok.strip())
    spec = SearchSpec(
        BelyiInstance(field, S, T),
        args.variant,
        args.d_max,
        fields=fields,
        mode=args.mode,
        seed=args.seed,
        budget=args.budget,
    )
    res = minimal_belyi_degree(spec, workers=args.workers, **_guard(args, "guard"))
    config.update(
        d_max=args.d_max,
        fields=[str(E) for E in spec.fields],
        mode=spec.mode,
        seed=spec.seed,
        budget=spec.budget,
        normalize=False,  # kept so that the pinned search output does not change
    )
    return {
        "degree": res["degree"],
        "witness": None if res["witness"] is None else str(res["witness"]),
        "exhausted": res["exhausted"],
        "fields_searched": res["fields_searched"],
        "candidates_tested": res["candidates_tested"],
        "config": config,
    }


_HANDLERS = {
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "count": _cmd_count,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_int("--workers", args.workers, 1)
        doc = _HANDLERS[args.command](args)
        text = json.dumps(doc, indent=2, sort_keys=True) if args.json else "\n".join(_flat_lines(doc))
    except PreconditionError as exc:  # GuardExceededError and InseparableMapError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalInconsistencyError, ValueError) as exc:  # any other ValueError is a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
