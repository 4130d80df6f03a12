"""Command-line entry point: one subcommand per computation, JSON reports.

All outputs are exact: rationals as "a/b" strings, p-adic values as digit
strings with an explicit error valuation.  Exit codes: 0 success, 2 usage,
3 precision exhaustion, 4 mathematical failure report.  Nothing is
randomized: identical invocations produce byte-identical reports apart from
the wall_time_ms field, and --seed only appears among the inputs.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NonarchError, PrecisionExhaustedError, UndecidableSlopeError
from .padic import (DEFAULT_PREC, INF, MAX_DIGITS, PadicNumber, exact_text,
                    json_shape, padic_digit_string, parse_fraction, require_prime)

# each handler imports the modules it calls, so that a process imports
# only those of its command
if TYPE_CHECKING:
    from . import currents, poles, skeleton

USAGE_ERROR, PRECISION_ERROR, MATH_FAILURE = 2, 3, 4


class _JSONDecimal(decimal.Decimal):
    """A JSON number with a fraction part or an exponent, kept as the
    decimal it spells.  Its repr is its text, so an error message shows the
    number as written."""

    __slots__ = ()
    __repr__ = decimal.Decimal.__str__


def _parse_json(load, source, what: str):
    """``load(source)`` with ``json.load`` or ``json.loads``, reading each
    number with a fraction part or an exponent as a ``_JSONDecimal``.  JSON
    nested deeper than the parser's recursion limit, or a number whose
    exponent not even a Decimal holds, is refused as a ValueError naming
    ``what``, the input."""
    try:
        return load(source, parse_float=_JSONDecimal)
    except RecursionError:
        raise ValueError(f"{what}: JSON nested too deeply") from None
    except decimal.InvalidOperation:
        raise ValueError(f"{what}: a JSON number's exponent is out of range") from None


def _load_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json_shape(_parse_json(json.load, fh, path), "object",
                          f"{path}: the top level")


_DIGIT_LIMIT = 10 ** MAX_DIGITS


def _too_many_digits(p: int, e: int) -> bool:
    """Whether p^e >= 10^MAX_DIGITS, a power no report could print.  With
    b = p.bit_length(), p^e >= 2^(e (b-1)): a huge e is refused on that
    alone, and the exact power is taken only when it has fewer than twice
    the bits of 10^MAX_DIGITS."""
    return e * (p.bit_length() - 1) >= _DIGIT_LIMIT.bit_length() or \
        e > 0 and p ** e >= _DIGIT_LIMIT


def _padic(p: int, rat, prec: int, pi_part=Fraction(0)) -> PadicNumber:
    """``PadicNumber(p, rat, pi_part, prec)`` for a value read from argv or
    a file.  A valid p with a ``prec`` at which its exact unit could pass
    MAX_DIGITS decimal digits is refused first: p^(2 prec) >= 10^MAX_DIGITS
    (``_too_many_digits``), as a ramified unit interleaves 2 prec digits."""
    require_prime(p)
    if _too_many_digits(p, 2 * prec):
        raise ValueError(f"--prec {prec} is too large for p = {p}: p^(2*prec) "
                         f"must stay below 10^{MAX_DIGITS}")
    return PadicNumber(p, rat, pi_part, prec)


def _parse_scalar(s: str, p: int, prec: int) -> PadicNumber:
    """Accept 'p', 'p^k', 'p**k', '-p^k', or a rational 'a/b'.  A valid p
    with p^|k| >= 10^MAX_DIGITS, more digits than a rational written out may
    have, is refused before the power is taken."""
    t = s.strip().replace("**", "^")
    sign = 1
    if t.startswith("-"):
        sign, t = -1, t[1:]
    if t == "p":
        return _padic(p, sign * p, prec)
    if t.startswith("p^"):
        k = int(t[2:])
        require_prime(p)
        if _too_many_digits(p, abs(k)):
            raise ValueError(f"p^{k} is out of range for p = {p}: p^|k| must stay "
                             f"below 10^{MAX_DIGITS}")
        return _padic(p, sign * Fraction(p) ** k, prec)
    return _padic(p, sign * parse_fraction(t), prec)


def _parse_pole(entry, p: int, prec: int) -> PadicNumber:
    if isinstance(entry, dict):
        return _padic(p, parse_fraction(entry.get("rat")), prec,
                      parse_fraction(entry.get("pi", 0)))
    return _parse_scalar(str(entry), p, prec)


def _padic_json(x: PadicNumber, err) -> dict:
    return {
        "digits": padic_digit_string(x, err),
        "valuation": exact_text(x.val),
        "error_valuation": exact_text(err),
        "exact": x.to_json(),
    }


# -- subcommand handlers -------------------------------------------------


def _cmd_splitting_radius(args) -> dict:
    from . import torsor
    exact = torsor.splitting_logradius_exact(args.N, args.n, args.p)
    cert = torsor.artin_schreier_certificate(args.N, args.p)
    out = {"logradius": exact_text(exact), "genus_flag": cert.forces_vertex}
    if args.numeric:
        germ = torsor.RamifiedGerm.model(args.p, args.N, args.prec)
        numeric = torsor.splitting_logradius_numeric(germ, args.n)
        out["numeric_logradius"] = exact_text(numeric)
        out["agrees"] = numeric == exact
    return out


def _cmd_as_genus(args) -> dict:
    from . import torsor
    return torsor.artin_schreier_certificate(args.e, args.p).to_json()


def _load_pole_family(args) -> poles.PoleFamily:
    from . import poles
    data = _load_object(args.poles)
    p = json_shape(data.get("p"), "integer", f'{args.poles}: "p"')
    prec = args.prec
    x = _parse_pole(data.get("x") if args.x is None else args.x, p, prec)
    members = tuple(_parse_pole(e, p, prec) for e in
                    json_shape(data.get("poles"), "list", f'{args.poles}: "poles"'))
    return poles.PoleFamily(members, x)


def _cmd_order_set(args) -> dict:
    from . import poles
    fam = _load_pole_family(args)
    result = poles.order_set(fam, args.nmax)
    out = result.to_json()
    out["inequality_dim_le_C_u"] = result.check_inequality()
    return out


def _cmd_find_order(args) -> dict:
    from . import poles
    fam = _load_pole_family(args)
    # the search returns the order its one re-verification found
    coeffs, order = poles._find_witness(fam, args.p, args.nmax)
    return {
        "coefficients": [exact_text(c) for c in coeffs],
        "order": order,
        "order_plus_one": order + 1,
    }


def _load_current(path: str) -> currents.Current:
    from . import currents
    return currents.Current.from_json(_load_object(path))


def _cmd_current(args) -> dict:
    from . import currents
    cur = _load_current(args.file)  # raises on an invalid current
    out = {"valid": True}
    if args.alpha_at is not None or args.delta_at is not None:
        if args.p is None:
            raise ValueError("--p is required to evaluate a current")
        q = _parse_scalar(args.q, args.p, args.prec)
        if args.alpha_at is not None:
            z = _parse_scalar(args.alpha_at, args.p, args.prec)
            res = currents.alpha_eval(cur, q, z, args.J)
            out["alpha"] = _padic_json(res.value, res.error_valuation)
        if args.delta_at is not None:
            z = _parse_scalar(args.delta_at, args.p, args.prec)
            res = currents.delta_eval(cur, q, z, args.J)
            if res.is_pole:
                out["delta"] = {"pole_ord": res.pole_ord}
            else:
                out["delta"] = _padic_json(res.value, res.error_valuation)
    return out


def _cmd_moebius_check(args) -> dict:
    from . import currents
    q = _parse_scalar(args.q, args.p, args.prec)
    res = currents.delta_at_one(args.n, q, args.J)
    target = q ** args.n
    diff = res.value - target
    ok = diff.exact_valuation >= res.error_valuation
    return {
        "value": padic_digit_string(res.value, res.error_valuation),
        "target": padic_digit_string(target, res.error_valuation),
        "error_valuation": exact_text(res.error_valuation),
        "difference_valuation": exact_text(diff.exact_valuation),
        "ok": ok,
    }


def _cmd_poly_eval(args) -> dict:
    from . import currents
    q = _parse_scalar(args.q, args.p, args.prec)
    coeffs = [parse_fraction(c) for c in args.coeffs.split(",")]
    res = currents.poly_current_eval(coeffs, q, args.J)
    direct = sum((q ** n * a for n, a in enumerate(coeffs)), PadicNumber.zero(q.p, q.prec))
    diff = res.value - direct
    return {
        "value": padic_digit_string(res.value, res.error_valuation),
        "direct": padic_digit_string(direct, res.error_valuation),
        "error_valuation": exact_text(res.error_valuation),
        "ok": diff.exact_valuation >= res.error_valuation,
    }


def _parse_factored(args) -> currents.FactoredFunction:
    from . import currents
    pairs = json_shape(_parse_json(json.loads, args.factors, "--factors"),
                       "list", "--factors")
    zeros = tuple(tuple(json_shape(n, "integer", "a --factors pair entry")
                        for n in json_shape(f, "list", "a --factors pair", 2))
                  for f in pairs)
    return currents.FactoredFunction(x_exponent=args.x_exponent, zeros=zeros)


def _cmd_theta(args) -> dict:
    from . import currents
    q = _parse_scalar(args.q, args.p, args.prec)
    fd = _parse_factored(args)
    z = _parse_scalar(args.z, args.p, args.prec)
    z0 = _parse_scalar(args.z0, args.p, args.prec)
    req = currents.ThetaRequest(fd, q, args.l, z, z0, args.M)
    res, ratio = req.product(), req.automorphy_ratio()
    return {
        "value": _padic_json(res.value, res.error_valuation),
        "error_valuation": exact_text(res.error_valuation),
        "automorphy_ratio": _padic_json(ratio.value, ratio.error_valuation),
        "automorphy_constant": _padic_json(
            currents.theta_automorphy_constant(fd, q), INF),
    }


def _cmd_ladder_ord(args) -> dict:
    from . import currents
    cur = _load_current(args.file)
    q = _parse_scalar(args.q, args.p, args.prec)
    z = _parse_scalar(args.z, args.p, args.prec)
    res = currents.ladder_ord(cur, q, z, args.nmax)
    return {
        "ord_plus_one": res.value,
        "pole_short_circuit": res.pole,
        "levels": [list(row) for row in res.table],
    }


def _load_tower(path: str) -> skeleton.SkeletonTower:
    from . import skeleton
    return skeleton.SkeletonTower.from_json(_load_object(path), path)


def _parse_point(s: str) -> skeleton.GraphPoint:
    from . import skeleton
    t = s.strip()
    if "@" in t:
        eid, off = t.split("@", 1)
        return skeleton.GraphPoint.on_edge(eid, parse_fraction(off))
    return skeleton.GraphPoint.at_vertex(t)


def _cmd_skeleton_tower(args) -> dict:
    from . import skeleton
    tower = _load_tower(args.file)
    if args.check == "compose":
        if tower.depth < 2:
            raise ValueError("compose check needs at least two refinements")
        reports = []
        for i in range(tower.depth - 1):
            r12 = tower.refinements[i + 1]  # fine = graphs[i+2] -> graphs[i+1]
            r23 = tower.refinements[i]      # fine = graphs[i+1] -> graphs[i]
            rep = skeleton.compose_check(r12, r23, samples=args.samples)
            reports.append({"levels": [i + 2, i + 1, i], "ok": rep.ok,
                            "message": rep.message})
        return {"check": "compose", "ok": all(r["ok"] for r in reports),
                "reports": reports}
    if args.x is None or args.y is None:
        raise ValueError("the separation check needs both --x and --y")
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    level = skeleton.tower_separation(tower, x, y)
    return {"check": "separation", "level": level}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonarch",
        description="Exact non-archimedean computation kernels")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="unused: nothing is randomized")
    common.add_argument("--prec", type=int, default=DEFAULT_PREC,
                        help="absolute p-adic precision cap")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)))

    sp = sub.add_parser("splitting-radius", help="splitting log-radius of the "
                        "p^n-torsor of 1 + X^N")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--numeric", action="store_true")
    sp.set_defaults(handler=_cmd_splitting_radius)

    sp = sub.add_parser("as-genus", help="Artin-Schreier certificate for T^p-T=X^e")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(handler=_cmd_as_genus)

    sp = sub.add_parser("order-set", help="achieved vanishing orders of "
                        "combinations of simple poles")
    sp.add_argument("--poles", required=True, help="JSON file with p, x, poles")
    sp.add_argument("--x", default=None, help="override the base point")
    sp.add_argument("--nmax", type=int, default=12)
    sp.set_defaults(handler=_cmd_order_set)

    sp = sub.add_parser("find-order", help="combination whose order+1 is not a p-power")
    sp.add_argument("--poles", required=True)
    sp.add_argument("--x", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--nmax", type=int, default=None)
    sp.set_defaults(handler=_cmd_find_order)

    sp = sub.add_parser("current", help="validate/evaluate a current file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", default="p")
    sp.add_argument("--J", type=int, default=None)
    sp.add_argument("--alpha-at", dest="alpha_at", default=None)
    sp.add_argument("--delta-at", dest="delta_at", default=None)
    sp.set_defaults(handler=_cmd_current)

    sp = sub.add_parser("moebius-check", help="delta(c_n)(1) = q^n within the "
                        "certified tail")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--J", type=int, default=12)
    sp.set_defaults(handler=_cmd_moebius_check)

    sp = sub.add_parser("poly-eval", help="delta(c_P)(1) = P(q) within the "
                        "certified tail")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--coeffs", required=True, help="comma-separated a_0,a_1,...")
    sp.add_argument("--J", type=int, default=12)
    sp.set_defaults(handler=_cmd_poly_eval)

    sp = sub.add_parser("theta", help="truncated theta product with tail certificate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--factors", required=True,
                    help='JSON list [[j, k], ...] of grid zeros/poles')
    sp.add_argument("--x-exponent", dest="x_exponent", type=int, default=0)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--z", required=True)
    sp.add_argument("--z0", required=True)
    sp.add_argument("--M", type=int, default=8)
    sp.set_defaults(handler=_cmd_theta)

    sp = sub.add_parser("ladder-ord", help="ladder estimate of ord_z(delta(c)) + 1")
    sp.add_argument("--file", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--nmax", type=int, default=6)
    sp.set_defaults(handler=_cmd_ladder_ord)

    sp = sub.add_parser("skeleton-tower", help="compose/separation checks on a tower")
    sp.add_argument("--file", required=True)
    sp.add_argument("--check", choices=["compose", "separation"], required=True)
    sp.add_argument("--x", default=None)
    sp.add_argument("--y", default=None)
    sp.add_argument("--samples", type=int, default=100)
    sp.set_defaults(handler=_cmd_skeleton_tower)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: construction costs ~20x a parse, and no
    # argument has a mutable default
    return build_parser()


@functools.cache
def _argv_table() -> dict:
    """Per subcommand, read off ``_parser()``: each long option string of
    a one-value option or a flag, to its action; the defaults of its
    Namespace, with ``command`` and ``handler``; and its required dests.
    Defaults are taken as they stand: argparse would convert a string
    default by the option's type, and no option has one."""
    table = {}
    subs, = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sp in subs.choices.items():
        opts = {s: a for a in sp._actions for s in a.option_strings
                if s.startswith("--") and (type(a) is argparse._StoreAction and a.nargs is None
                                           or isinstance(a, argparse._StoreConstAction))}
        defaults = {"command": name, **{a.dest: a.default for a in sp._actions
                                        if a.default is not argparse.SUPPRESS}, **sp._defaults}
        table[name] = opts, defaults, {a.dest for a in sp._actions if a.required}
    return table


def _read_argv(argv: list):
    """The Namespace ``_parser().parse_args(argv)`` gives, for an argv in
    canonical form: an exact subcommand, then exact long options, each dest
    once, as ``--opt value`` (a value not starting with "-"), ``--opt=value``
    or a bare flag, every value converted by its type and within its
    choices, and every required option given.  None for any other argv,
    which argparse reads, so that its help, usage and error texts and its
    exit code 2 stay the only ones."""
    if not argv or not all(isinstance(arg, str) for arg in argv) or \
            argv[0] not in _argv_table():
        return None
    opts, defaults, required = _argv_table()[argv[0]]
    given, rest = {}, iter(argv[1:])
    for arg in rest:
        opt, eq, value = arg.partition("=")
        action = opts.get(opt)
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:
            if eq:
                return None
            value = action.const
        else:
            if not eq:
                value = next(rest, "-")  # no value left reads as one starting with "-"
                if value.startswith("-"):
                    return None
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        given[action.dest] = value
    if not required <= given.keys():
        return None
    return argparse.Namespace(**{**defaults, **given})


def dispatch(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = _parser().parse_args(argv)
    inputs = {k: v for k, v in vars(args).items() if k != "handler"}
    started = time.monotonic()
    payload = {"command": args.command, "inputs": inputs}
    code = 0
    try:
        payload["result"] = args.handler(args)
    except (PrecisionExhaustedError, UndecidableSlopeError) as exc:
        code, failure = PRECISION_ERROR, exc
    except NonarchError as exc:
        code, failure = MATH_FAILURE, exc
    except (ValueError, OSError) as exc:
        code, failure = USAGE_ERROR, exc
    if code:
        payload["error"] = {"kind": type(failure).__name__, "reason": str(failure)}
    payload["wall_time_ms"] = round((time.monotonic() - started) * 1000, 3)
    return code, payload


def main(argv=None) -> int:
    code, payload = dispatch(argv)
    # one write; json.dumps runs the C encoder, json.dump the Python one
    sys.stdout.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
