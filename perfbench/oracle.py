"""Independent output checks for benchmark jobs.

Nothing here imports nonarch: every expected value is recomputed from the
job's inputs with plain ``fractions.Fraction`` arithmetic, closed forms, or
an exact rank computed modulo a large prime.  ``check`` returns the list of
problems found for one job; an empty list means the output is correct.

What is checked, per job kind:

- theta: the exact truncated product at z and at q^l z, the tail bounds,
  digit strings, exact JSON, the automorphy ratio and constant; or exit 4
  when the bound cannot certify the tail.
- root (library): explicit coefficients equal J.C.P. Miller's power
  recurrence, the certified tail holds on the next D coefficients of the
  exact root, and the radius is -alpha.
- ladder-ord: the ladder value equals ord + 1 of the seeded germ, and the
  level table stabilizes at that slope.
- splitting-radius, as-genus: closed forms.
- order-set, find-order: kernel-jump ranks modulo 2^127 - 1, the witness's
  exact vanishing order, the first admissible order (or exit 4).
- current, moebius-check, poly-eval: exact sums and products; the identity
  flags ``ok``/``agrees``/``inequality_dim_le_C_u`` must hold.
- skeleton-tower: compose reports, and separation levels from a retraction
  rebuilt from the generator's record of the tower.

Outputs of the default seed are also compared with the recorded digests in
``corpus/seed-<n>/expected.json`` (see ``golden_digest``).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

PREC = 64
MOD = (1 << 127) - 1


# -- p-adic helpers -------------------------------------------------------


def vp(x, p):
    """p-adic valuation of a rational; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def frac_str(x) -> str:
    return "inf" if x is None else str(Fraction(x))


def _unit_mod(x: Fraction, p: int, v: int, k: int) -> int:
    u = x / Fraction(p) ** v
    pk = p ** k
    return u.numerator % pk * pow(u.denominator % pk, -1, pk) % pk


def digit_string(x: Fraction, p: int, cutoff, prec: int = PREC) -> str:
    """Digits of x in powers of p below min(prec, ceil(cutoff)); cutoff None
    means no O-term."""
    v = vp(x, p)
    terms = []
    if v is not None and (cutoff is None or v < cutoff):
        limit = prec if cutoff is None else min(prec, math.ceil(cutoff))
        if limit > v:
            a = _unit_mod(x, p, v, limit - v)
            for i in range(limit - v):
                d, a = a % p, a // p
                k = v + i
                if d:
                    if k == 0:
                        terms.append(str(d))
                    else:
                        power = "p" if k == 1 else f"p^{k}"
                        terms.append(power if d == 1 else f"{d}*{power}")
    body = " + ".join(terms) if terms else "0"
    if cutoff is None:
        return body
    tail = f"O(p^{Fraction(cutoff)})"
    return tail if body == "0" else f"{body} + {tail}"


def padic_json(x: Fraction, p: int, err, prec: int = PREC) -> dict:
    v = vp(x, p)
    return {
        "digits": digit_string(x, p, err, prec),
        "valuation": "inf" if v is None or v >= prec else str(Fraction(v)),
        "error_valuation": frac_str(err),
        "exact": {"p": p, "val": frac_str(v),
                  "unit": "0" if v is None else str(_unit_mod(x, p, v, prec)),
                  "prec": prec},
    }


def parse_scalar(s: str, p: int) -> Fraction:
    t = s.strip().replace("**", "^")
    sign = 1
    if t.startswith("-"):
        sign, t = -1, t[1:]
    if t == "p":
        return Fraction(sign * p)
    if t.startswith("p^"):
        return sign * Fraction(p) ** int(t[2:])
    return sign * Fraction(t)


def _is_p_power(n: int, p: int) -> bool:
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def moebius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


# -- per-command expectations ---------------------------------------------
#
# Each returns (expected exit code, expected result dict or error kind).


def _theta_bound(zeros, l, M, vz, vz0):
    js = [j for j, _ in zeros]
    beta_pos = Fraction(l) * (M + 1) + min(vz, vz0) - max(js)
    beta_neg = Fraction(l) * (M + 1) + min(js) - max(vz, vz0)
    return min(beta_pos, beta_neg)


def _theta_product(zeros, p, l, M, z, z0):
    def f(w):
        out = Fraction(1)
        for j, k in zeros:
            out *= (w - Fraction(p) ** j) ** k
        return out

    value = Fraction(1)
    for k in range(-M, M + 1):
        g = Fraction(p) ** (l * k)
        value = value * f(g * z) / f(g * z0)
    return value


def expect_theta(spec):
    p, zeros, l, M = spec["p"], spec["zeros"], spec["l"], spec["M"]
    z, z0 = Fraction(spec["z"]), Fraction(spec["z0"])
    zl = Fraction(p) ** l * z
    rel = _theta_bound(zeros, l, M, vp(z, p), vp(z0, p))
    rel_shift = _theta_bound(zeros, l, M, vp(zl, p), vp(z0, p))
    if rel <= 0 or rel_shift <= 0:
        return 4, "TailCertificateError"
    value = _theta_product(zeros, p, l, M, z, z0)
    shifted = _theta_product(zeros, p, l, M, zl, z0)
    ratio = shifted / value
    const = Fraction(1)
    for j, k in zeros:
        const *= (-Fraction(p) ** j) ** k
    err = rel + vp(value, p)
    return 0, {
        "value": padic_json(value, p, err),
        "error_valuation": frac_str(err),
        "automorphy_ratio": padic_json(ratio, p, min(rel, rel_shift) + vp(ratio, p)),
        "automorphy_constant": padic_json(const, p, None),
    }


def _as_cert(e, p):
    m = vp(e, p)
    d = e // p ** m
    genus = (d - 1) * (p - 1) // 2
    return {"e": e, "p": p, "m": m, "d": d, "genus": genus,
            "forces_vertex": genus >= 1, "residue_equation": f"T^{p} - T = X^{e}"}


def expect_splitting_radius(spec):
    p, N, n = spec["p"], spec["N"], spec["n"]
    rho = str((Fraction(n) + Fraction(1, p - 1)) / N)
    out = {"logradius": rho, "genus_flag": _as_cert(N, p)["forces_vertex"]}
    if spec["numeric"]:
        out["numeric_logradius"] = rho
        out["agrees"] = True
    return 0, out


def expect_as_genus(spec):
    return 0, _as_cert(spec["e"], spec["p"])


# exact rank of pole expansion matrices


def _pole_pairs(fam):
    p = int(fam["p"])
    x = parse_scalar(str(fam["x"]), p)
    pairs = []
    for e in fam["poles"]:
        if isinstance(e, dict):
            pairs.append((Fraction(e["rat"]), Fraction(e.get("pi", 0))))
        else:
            pairs.append((parse_scalar(str(e), p), Fraction(0)))
    C = 2 if any(b for _, b in pairs) else 1
    return p, x, pairs, C


def _expansion(p, x, a, b, count, conv):
    """Coordinates (rat, pi) of (-1)^k / (x - (a + b*pi))^(k+1), k < count,
    in the arithmetic given by ``conv`` (exact or modulo MOD)."""
    r0 = x - a
    nrm = r0 * r0 - p * b * b
    if conv is None:
        inv = (r0 / nrm, b / nrm)
        mul = lambda s, t: (s[0] * t[0] + p * s[1] * t[1], s[0] * t[1] + s[1] * t[0])
        neg = lambda s: (-s[0], -s[1])
    else:
        ni = pow(conv(nrm), -1, MOD)
        inv = (conv(r0) * ni % MOD, conv(b) * ni % MOD)
        mul = lambda s, t: ((s[0] * t[0] + p * s[1] * t[1]) % MOD,
                            (s[0] * t[1] + s[1] * t[0]) % MOD)
        neg = lambda s: (-s[0] % MOD, -s[1] % MOD)
    out, cur = [], inv
    for _ in range(count):
        out.append(cur)
        cur = neg(mul(cur, inv))
    return out


def _mod(x: Fraction) -> int:
    return x.numerator % MOD * pow(x.denominator % MOD, -1, MOD) % MOD


def _prefix_ranks(fam, blocks):
    """ranks[k] = rank over Q of the first k coefficient blocks (computed
    modulo MOD; a drop below the rational rank has probability ~2^-120)."""
    p, x, pairs, C = _pole_pairs(fam)
    rows = [_expansion(p, x, a, b, blocks, _mod) for a, b in pairs]
    basis = []  # (pivot, vector with 1 at pivot)
    ranks = [0]
    for k in range(blocks):
        for part in range(C):
            v = [rows[i][k][part] for i in range(len(rows))]
            for piv, vec in basis:
                c = v[piv]
                if c:
                    v = [(s - c * t) % MOD for s, t in zip(v, vec)]
            piv = next((i for i, s in enumerate(v) if s), None)
            if piv is not None:
                inv = pow(v[piv], -1, MOD)
                basis.append((piv, [s * inv % MOD for s in v]))
        ranks.append(len(basis))
    return ranks, C


def expect_order_set(spec):
    nmax = spec["nmax"]
    ranks, C = _prefix_ranks(spec["family"], nmax + 2)
    E = [n for n in range(nmax + 1) if ranks[n + 1] > ranks[n]]
    u, count = [], 0
    for n in range(nmax + 1):
        count += n in E
        u.append(count)
    dims = ranks[: nmax + 1]
    return 0, {"nmax": nmax, "C": C, "E_window": E, "u": u, "dims": dims,
               "inequality_dim_le_C_u": all(d <= C * c for d, c in zip(dims, u))}


def expect_find_order(spec):
    fam = spec["family"]
    n = len(fam["poles"])
    window = n - 1 if spec["nmax"] is None else spec["nmax"]
    ranks, _ = _prefix_ranks(fam, window + 1)
    p = int(fam["p"])
    for k in range(window + 1):
        if ranks[k + 1] > ranks[k] and not _is_p_power(k + 1, p):
            return 0, k
    return 4, "NoAdmissibleOrderError"


def _find_order_problems(spec, k, result):
    p, x, pairs, _ = _pole_pairs(spec["family"])
    problems = []
    if result.get("order") != k or result.get("order_plus_one") != k + 1:
        problems.append(f"order {result.get('order')} != first admissible {k}")
        return problems
    coeffs = [Fraction(c) for c in result["coefficients"]]
    if len(coeffs) != len(pairs) or not any(coeffs):
        return problems + ["witness has the wrong length or is zero"]
    if any(c and vp(c, p) < 0 for c in coeffs):
        problems.append("witness is not p-integral")
    rows = [_expansion(p, x, a, b, k + 1, None) for a, b in pairs]
    for j in range(k + 1):
        s = (sum(c * r[j][0] for c, r in zip(coeffs, rows)),
             sum(c * r[j][1] for c, r in zip(coeffs, rows)))
        if (s != (0, 0)) != (j == k):
            problems.append(f"witness coefficient {j} is {'non' if s != (0, 0) else ''}zero")
    return problems


def _current_values(cur):
    cusp = {int(j): v for j, v in cur["cusp"].items()}
    spine = {int(j): v for j, v in cur["spine"].items()}
    return cusp, spine


def _validate_current(cur):
    """Index of the first failing relation c(e'_{j+1}) = c(e'_j) + c(e_{j+1})."""
    cusp, spine = _current_values(cur)
    if cur["period"] is not None:
        P = cur["period"]
        if sum(cusp.get(j, 0) for j in range(P)) != 0:
            return "sum"
        for j in range(P):
            if spine[(j + 1) % P] != spine[j % P] + cusp.get((j + 1) % P, 0):
                return j + 1
        return None
    jmin, jmax = cur["window"]

    def sp(j):
        return spine[jmin - 1] if j < jmin - 1 else spine[jmax] if j > jmax else spine[j]

    for j in range(jmin - 1, jmax):
        if sp(j + 1) != sp(j) + cusp.get(j + 1, 0):
            return j + 1
    return None


def expect_current(spec):
    cur = spec["current"]
    if _validate_current(cur) is not None:
        return 2, "ValueError"
    if "delta_at" not in spec and "alpha_at" not in spec:
        return 0, {"valid": True}
    p = spec["p"]
    cusp, spine = _current_values(cur)
    q = Fraction(p)
    if cur["period"] is not None:
        z = Fraction(spec["delta_at"])
        J, vz = spec["J"], vp(z, p)
        if not ((J + 1) > vz and -(J + 1) < vz):
            return 4, "TailCertificateError"
        raise ValueError("only the too-small-window periodic case is generated")
    jmin, jmax = cur["window"]
    s0 = spine[jmin - 1] if 0 < jmin - 1 else spine[jmax] if 0 > jmax else spine[0]
    support = [j for j, v in sorted(cusp.items()) if v]
    if "delta_at" in spec:
        z = Fraction(spec["delta_at"])
        value = s0 / z
        for j in support:
            kernel = 1 / (z - q ** j) - (1 / z if j >= 1 else 0)
            value += kernel * cusp[j]
        return 0, {"valid": True, "delta": padic_json(value, p, None)}
    z = Fraction(spec["alpha_at"])
    value = z ** s0
    for j in support:
        num = z - q ** j
        base = num / z if j >= 1 else num / q ** j
        value *= base ** cusp[j]
    return 0, {"valid": True, "alpha": padic_json(value, p, None)}


def expect_moebius(spec):
    p, n, J = spec["p"], spec["n"], spec["J"]
    q = parse_scalar(spec["q"], p)
    err = Fraction(n) * (J + 1) * vp(q, p)
    acc = Fraction(0)
    for j in range(1, J + 1):
        mu = moebius(j)
        if mu:
            t = q ** (j * n)
            acc += t / (1 - t) * mu
    target = q ** n
    dv = vp(acc - target, p)
    return 0, {"value": digit_string(acc, p, err), "target": digit_string(target, p, err),
               "error_valuation": frac_str(err), "difference_valuation": frac_str(dv),
               "ok": dv is None or dv >= err}


def expect_poly_eval(spec):
    p, J = spec["p"], spec["J"]
    a = [Fraction(c) for c in spec["coeffs"]]
    q = Fraction(p)
    # delta(c_P)(1) = a_0 + sum_j c_j q^j / (1 - q^j), c_j = sum_{n | j} a_n mu(j/n)
    value = a[0]
    err = None
    for n, an in enumerate(a[1:], start=1):
        if an:
            for k in range(1, J + 1):
                t = q ** (k * n)
                value += an * moebius(k) * t / (1 - t)
            e = vp(an, p) + Fraction(n) * (J + 1)
            err = e if err is None else min(err, e)
    direct = sum(an * q ** n for n, an in enumerate(a))
    dv = vp(value - direct, p)
    ok = dv is None or (err is not None and dv >= err)
    return 0, {"value": digit_string(value, p, err), "direct": digit_string(direct, p, err),
               "error_valuation": frac_str(err), "ok": ok}


# skeleton towers


def _canon(graph_edges, pt):
    if pt[0] == "e":
        _, eid, off = pt
        u, v, length = graph_edges[eid]
        if off == 0:
            return ("v", u)
        if off == length:
            return ("v", v)
    return pt


def _edges(graph):
    return {e[0]: (e[1], e[2], Fraction(e[3])) for e in graph["edges"]}


def _retract(pt, level, coarse_edges):
    if pt[0] == "v":
        info = level["vertices"][pt[1]]
        if info[0] == "vertex":
            return ("v", info[1])
        if info[0] == "edge":
            return _canon(coarse_edges, ("e", info[1], Fraction(info[2])))
        return _retract(("v", info[1]), level, coarse_edges)
    info = level["edges"][pt[1]]
    if info[0] == "piece":
        return _canon(coarse_edges, ("e", info[1], Fraction(info[2]) + pt[2]))
    return _retract(("v", info[1]), level, coarse_edges)


def tower_images(tower, levels, point: str):
    graphs = tower["graphs"]
    if "@" in point:
        eid, off = point.split("@", 1)
        pt = _canon(_edges(graphs[-1]), ("e", eid, Fraction(off)))
    else:
        pt = ("v", point)
    images = [pt]
    for i in range(len(levels) - 1, -1, -1):
        pt = _retract(pt, levels[i], _edges(graphs[i]))
        images.append(pt)
    images.reverse()
    return images


def expect_skeleton(spec):
    tower, levels = spec["tower"], spec["levels"]
    depth = len(levels)
    if spec["check"] == "compose":
        reports = [{"levels": [i + 2, i + 1, i], "ok": True, "message": ""}
                   for i in range(depth - 1)]
        return 0, {"check": "compose", "ok": True, "reports": reports}
    ix = tower_images(tower, levels, spec["x"])
    iy = tower_images(tower, levels, spec["y"])
    for level in range(depth):
        if ix[level] != iy[level]:
            return 0, {"check": "separation", "level": level}
    return 4, "NotSeparatedError"


def _ladder_problems(spec, result):
    want = spec["ord"] + 1
    problems = []
    if result.get("ord_plus_one") != want:
        problems.append(f"ord_plus_one {result.get('ord_plus_one')} != {want}")
    if result.get("pole_short_circuit") is not False:
        problems.append("unexpected pole short circuit")
    levels = result.get("levels", [])
    if [row[0] for row in levels] != list(range(1, spec["nmax"] + 1)):
        problems.append("ladder depths are not 1..nmax")
    ms = [row[1] for row in levels]
    diffs = [b - a for a, b in zip(ms, ms[1:])]
    if any(d < 0 for d in diffs) or diffs[-min(3, len(diffs)):] != \
            [want] * min(3, len(diffs)):
        problems.append(f"level table does not stabilize at {want}: {ms}")
    return problems


EXPECT = {"theta": expect_theta, "splitting-radius": expect_splitting_radius,
          "as-genus": expect_as_genus, "order-set": expect_order_set,
          "current": expect_current, "moebius-check": expect_moebius,
          "poly-eval": expect_poly_eval, "skeleton-tower": expect_skeleton}

# result flags that state a checked identity and must be true
IDENTITY_FLAGS = ("ok", "agrees", "inequality_dim_le_C_u")


def _cli_problems(job, code, report):
    spec = job["spec"]
    cmd = spec["cmd"]
    if report.get("command") != cmd:
        return [f"report is for command {report.get('command')!r}"]
    result = report.get("result")
    if cmd == "ladder-ord":
        if code != 0:
            return [f"exit {code}: {report.get('error')}"]
        return _ladder_problems(spec, result)
    if cmd == "find-order":
        want_code, want = expect_find_order(spec)
    else:
        want_code, want = EXPECT[cmd](spec)
    if code != want_code:
        return [f"exit {code}, expected {want_code}: {report.get('error')}"]
    if want_code != 0:
        kind = report.get("error", {}).get("kind")
        return [] if kind == want else [f"error kind {kind}, expected {want}"]
    problems = [f"identity flag {k} is false" for k in IDENTITY_FLAGS
                if isinstance(result, dict) and result.get(k) is False]
    if cmd == "find-order":
        return problems + _find_order_problems(spec, want, result)
    if result != want:
        keys = sorted(set(result) | set(want)) if isinstance(result, dict) else []
        diff = [k for k in keys if result.get(k) != want.get(k)]
        problems.append(f"result differs from the oracle in {diff or result}")
    return problems


# -- library roots --------------------------------------------------------


def miller_power(v, a, count):
    """First ``count`` coefficients of V^a for V_0 = 1 (J.C.P. Miller's
    recurrence, Knuth TAOCP vol. 2, 4.7)."""
    w = [Fraction(1)]
    a1 = a + 1
    for n in range(1, count):
        s = Fraction(0)
        for k in range(1, min(n, len(v) - 1) + 1):
            if v[k]:
                s += (a1 * k - n) * v[k] * w[n - k]
        w.append(s / n)
    return w


def _root_problems(spec, out):
    p, m = spec["p"], spec["m"]
    D = len(spec["coeffs"]) - 1
    full = [Fraction(c) for c in spec["full"]]
    exact = miller_power(full, Fraction(1, p ** m), 2 * D + 1)
    problems = []
    coeffs = [(Fraction(r), Fraction(s)) for r, s in out["coeffs"]]
    if coeffs != [(c, Fraction(0)) for c in exact[: D + 1]]:
        bad = next(i for i, (c, e) in enumerate(zip(coeffs, exact))
                   if c != (e, 0)) if len(coeffs) == D + 1 else "length"
        problems.append(f"root coefficient {bad} differs from Miller's recurrence")
    tail = out["tail"]
    if tail is None:
        return problems + ["root of a nonconstant unit series has no tail"]
    alpha, beta = Fraction(tail["alpha"]), Fraction(tail["beta"])
    for k in range(D + 1, 2 * D + 1):
        v = vp(exact[k], p)
        if v is not None and v < alpha * k + beta:
            problems.append(f"tail v(a_k) >= {alpha}k + {beta} fails at k = {k}")
            break
    if out["radius"] != str(-alpha):
        problems.append(f"radius {out['radius']} != -alpha = {-alpha}")
    return problems


# -- entry points ---------------------------------------------------------


def normalized(job, record) -> str:
    """Report text without its timing field and with the input directory
    replaced, so that it can be compared across runs and checkouts."""
    if job["kind"] != "cli":
        return record["out"]
    report = json.loads(record["out"])
    report.pop("wall_time_ms", None)
    text = json.dumps(report, sort_keys=True)
    return text.replace(job.get("input_dir", "\0"), "<inputs>")


def golden_digest(job, record) -> str:
    return hashlib.sha256(
        f"{record['code']}\n{normalized(job, record)}".encode()).hexdigest()


def check(job, record, golden=None):
    """Problems with one job's output; [] when it is correct."""
    if record.get("exc"):
        return [f"uncaught exception: {record['exc']}"]
    try:
        out = json.loads(record["out"])
        if job["kind"] == "root":
            problems = _root_problems(job["spec"], out)
        else:
            problems = _cli_problems(job, record["code"], out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    if golden is not None and job["id"] in golden and \
            golden[job["id"]] != golden_digest(job, record):
        problems.append("output differs from the recorded report")
    return problems
