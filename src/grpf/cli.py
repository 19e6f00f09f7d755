"""Command line front end.

Subcommands: bwb, classify, windows, collection verify, lemma check,
hodge grass-section, hodge hypersurface, pfaffian build|sample,
verify-all.  Every command accepts --json for a canonical JSON report
(sorted keys, no timing data, byte-identical across runs for identical
inputs) and --out to write that report to a file.  Output is plain text;
NO_COLOR is honoured trivially since nothing is ever colourised.

The parser is built once, at import; each leaf subparser carries its
handler as the ``handler`` default, which returns ``(code, params,
result, provenance)``, plus the per-item timings for verify-all.

Exit codes: 0 success, 1 mathematical verification failure (the report
carries the counterexample), 2 usage or parameter error, or an input too
large for the memory at hand (a MemoryError).  A reader that closes the
pipe early (``| head``) ends the script by SIGPIPE, never 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys

from .bwb import bott
from .diamond import diamond_rows
from .errors import IntegrityError
from .geometry import (
    ModelParams,
    classify,
    grassmannian_window,
    orthogonal_rectangle,
    pfaffian_window,
    theorem_range,
    window_sets,
)
from .pfaffian import (
    AMap,
    hypersurface_hodge,
    pfaffian_polynomial,
    sample_y2,
    submaximal_pfaffians,
)
from .sections import (
    h1_tangent_y1,
    hodge_diamond_y1,
    twisted_ext_vanishing,
    verify_strong_exceptional,
)
from .verify import run_profile


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grpf",
        description="Exact cohomology and Pfaffian-side geometry for Gr(2,n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(p, handler):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", metavar="PATH", help="also write the JSON report to PATH")
        p.set_defaults(handler=handler)

    p = sub.add_parser("bwb", help="cohomology of one irreducible homogeneous bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=_int_list, required=True, metavar="a1,a2")
    p.add_argument("--q", type=_int_list, default=None, metavar="b1,...")
    leaf(p, _cmd_bwb)

    p = sub.add_parser("classify", help="dimensions and types of the two sections")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    leaf(p, _cmd_classify)

    p = sub.add_parser("windows", help="window label sets and their inclusion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    leaf(p, _cmd_windows)

    p = sub.add_parser("collection", help="exceptional collection checks")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pv = csub.add_parser("verify", help="verify strong exceptionality of a window")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--set", dest="which", choices=("S", "T"), default="S",
                    help="S: Grassmannian-side window; T: Pfaffian-side (needs --k)")
    pv.add_argument("--k", type=int, default=None)
    leaf(pv, _cmd_collection_verify)

    p = sub.add_parser("lemma", help="twisted Ext vanishing for all twists")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    lc = lsub.add_parser("check", help="decide vanishing for every t >= 0")
    lc.add_argument("--n", type=int, required=True)
    leaf(lc, _cmd_lemma_check)

    p = sub.add_parser("hodge", help="Hodge diamonds")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    hg = hsub.add_parser("grass-section", help="linear section of Gr(2,n)")
    hg.add_argument("--n", type=int, required=True)
    hg.add_argument("--k", type=int, required=True)
    leaf(hg, _cmd_hodge_grass_section)
    hh = hsub.add_parser("hypersurface", help="smooth hypersurface in projective space")
    hh.add_argument("--dim", type=int, required=True, help="ambient projective dimension")
    hh.add_argument("--degree", type=int, required=True)
    leaf(hh, _cmd_hodge_hypersurface)

    p = sub.add_parser("pfaffian", help="skew families and point sampling")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pb = psub.add_parser("build", help="build the skew matrix of linear forms")
    pb.add_argument("--in", dest="infile", required=True, metavar="a.json")
    leaf(pb, _cmd_pfaffian_build)
    ps = psub.add_parser("sample", help="sample points of the degeneracy locus")
    ps.add_argument("--in", dest="infile", required=True, metavar="a.json")
    ps.add_argument("--prime", type=int, default=10007)
    ps.add_argument("--points", type=int, default=100)
    ps.add_argument("--seed", type=int, default=42)
    leaf(ps, _cmd_pfaffian_sample)

    p = sub.add_parser("verify-all", help="run the whole verification suite")
    p.add_argument("--profile", choices=("fast", "full"), default="fast")
    leaf(p, _cmd_verify_all)
    return parser


def _cmd_bwb(args):
    q = args.q if args.q is not None else (0,) * (args.n - 2)
    res = bott(args.n, args.s, q)
    result = {"outcome": "vanishes"}
    if res is not None:
        degree, dimension, weight = res
        result = {
            "outcome": "cohomology",
            "degree": degree,
            "weight": list(weight),
            "dimension": dimension,
        }
    params = {"n": args.n, "s": list(args.s), "q": list(q)}
    return 0, params, result, ["borel-weil-bott", "weyl-dimension-formula"]


def _cmd_classify(args):
    result = classify(ModelParams(args.n, args.k))
    params = {"n": args.n, "k": args.k}
    return 0, params, result, ["dimension-count", "canonical-type-thresholds"]


def _cmd_windows(args):
    params_obj = ModelParams(args.n, args.k)
    s, t, inclusion = window_sets(params_obj)
    rect = orthogonal_rectangle(params_obj)
    result = {
        "grassmannian_side": [list(x) for x in sorted(s)],
        "pfaffian_side": [list(x) for x in sorted(t)],
        "sizes": {"grassmannian_side": len(s), "pfaffian_side": len(t)},
        "inclusion": inclusion,
        "orthogonal_rectangle": [list(x) for x in sorted(rect)],
    }
    params = {"n": args.n, "k": args.k}
    return 0, params, result, ["window-set-enumeration", "subset-test"]


def _cmd_collection_verify(args):
    if args.which == "T" and args.k is None:
        raise ValueError("--set T requires --k")
    ModelParams(args.n, args.k or 0)  # rejects n < 3 and k outside 0..C(n,2)
    if args.which == "T":
        window = pfaffian_window(args.n, args.k)
    else:
        window = grassmannian_window(args.n)
    result = verify_strong_exceptional(args.n, window)
    params = {"n": args.n, "set": args.which, "k": args.k}
    code = 0 if result["passed"] else 1
    return code, params, result, ["clebsch-gordan", "borel-weil-bott"]


def _cmd_lemma_check(args):
    result = twisted_ext_vanishing(args.n)
    params = {"n": args.n}
    code = 0 if result["all_vanish"] else 1
    return code, params, result, [
        "clebsch-gordan",
        "borel-weil-bott",
        "affine-interval-analysis",
    ]


def _cmd_hodge_grass_section(args):
    params_obj = ModelParams(args.n, args.k)
    res = hodge_diamond_y1(params_obj)
    tangent = h1_tangent_y1(params_obj)
    d, h = params_obj.dim_y1, res.diamond

    def page(restricted):
        if restricted is None:
            return None
        return [[a, b, v] for (a, b), v in sorted(restricted.page.items())]

    result = {
        "dim": d,
        "middle_row": [h[p, d - p] for p in range(d + 1)],
        "rows": diamond_rows(h),
        "h11": h.get((1, 1), 0),
        "chi_p": list(res.chi_p),
        "theorem_range": theorem_range(args.n, args.k),
        "tangent_h1": {
            "mode": tangent.mode,
            "value": tangent.h1,
            "tangent_page": page(tangent.tangent_restricted),
            "normal_page": page(tangent.normal_restricted),
        },
        "audit": res.audit,
    }
    params = {"n": args.n, "k": args.k}
    return 0, params, result, [
        "koszul-resolution",
        "borel-weil-bott",
        "lefschetz-hyperplane",
        "euler-characteristics",
    ]


def _cmd_hodge_hypersurface(args):
    h = hypersurface_hodge(args.dim, args.degree)
    d = args.dim - 1
    result = {
        "dim": d,
        "middle_row": [h[p, d - p] for p in range(d + 1)],
        "rows": diamond_rows(h),
    }
    params = {"dim": args.dim, "degree": args.degree}
    return 0, params, result, ["jacobian-ring", "lefschetz-hyperplane"]


def _cmd_pfaffian_build(args):
    am = AMap.load(args.infile)

    def form(column):
        # c_1 u1 + ... + c_k uk written from u_k down, c = 1 left out; "0" when all are 0
        bits = [f"u{r}" if c == 1 else f"{c}*u{r}"
                for r, c in reversed(list(enumerate(column, 1))) if c]
        return " + ".join(bits) or "0"

    # entry (i, j), i < j, is the linear form with the family's column (i, j)
    # as coefficients; below the diagonal it is negated
    entries = [["0"] * am.n for _ in range(am.n)]
    for (i, j), column in zip(itertools.combinations(range(am.n), 2), zip(*am.matrix)):
        entries[i][j] = form(column)
        entries[j][i] = form([-c if am.p is None else -c % am.p for c in column])
    result = {
        "n": am.n,
        "k": am.k,
        "field": "Q" if am.p is None else {"p": am.p},
        "entries": entries,
    }
    # a polynomial is {exponent tuple: nonzero coefficient}; degree -1 when it is zero
    if am.n % 2 == 0:
        pf = pfaffian_polynomial(am)
        result["pfaffian"] = {
            "degree": max(map(sum, pf), default=-1),
            "terms": len(pf),
        }
    else:
        subs = submaximal_pfaffians(am)
        result["submaximal_pfaffians"] = {
            "count": len(subs),
            "degrees": [max(map(sum, s), default=-1) for s in subs],
        }
    params = {"in": args.infile}
    return 0, params, result, ["pfaffian-expansion"]


def _cmd_pfaffian_sample(args):
    am = AMap.load(args.infile)
    result = vars(sample_y2(am, args.prime, args.points, args.seed))
    params = {
        "in": args.infile,
        "prime": args.prime,
        "points": args.points,
        "seed": args.seed,
    }
    return 0, params, result, [
        "series-elimination",
        "gcd-root-splitting",
        "tangent-space-test",
    ]


def _cmd_verify_all(args):
    results = run_profile(args.profile)
    items = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail, _ in results
    ]
    all_passed = all(r["passed"] for r in items)
    result = {"profile": args.profile, "all_passed": all_passed, "items": items}
    params = {"profile": args.profile}
    code = 0 if all_passed else 1
    timings = {name: secs for name, _, _, secs in results}
    return code, params, result, ["verification-suite"], timings


def _human_render(command, result, timings=None):
    lines = []
    if command == "verify-all":
        for item in result["items"]:
            mark = "PASS" if item["passed"] else "FAIL"
            t = f" [{timings[item['name']]:.2f}s]" if timings else ""
            lines.append(f"{mark:4} {item['name']}: {item['detail']}{t}")
        lines.append(
            f"{'all passed' if result['all_passed'] else 'FAILURES PRESENT'}"
        )
        return "\n".join(lines)
    if command in ("hodge grass-section", "hodge hypersurface"):
        for row in result["rows"]:
            lines.append(" ".join(str(v) for v in row))
        lines.append(f"middle row: {result['middle_row']}")
        if "tangent_h1" in result:
            th = result["tangent_h1"]
            lines.append(f"tangent h1: {th['value']} ({th['mode']})")
        return "\n".join(lines)
    return json.dumps(result, indent=2, sort_keys=True)


_PARSER = _build_parser()


def run(argv):
    """Parse argv, dispatch, print the report; returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        out = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    code, params, result, provenance, *timings = out
    command = args.command
    if getattr(args, "subcommand", None):
        command += " " + args.subcommand
    report = {
        "command": command,
        "params": params,
        "result": result,
        "provenance": provenance,
    }
    rendered = json.dumps(report, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(rendered)
    else:
        print(_human_render(command, result, *timings))
    return code


def main():
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
