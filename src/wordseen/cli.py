"""Command line front end.

Every subcommand is deterministic given its flags.  Exact values print as
num/den plus a 12-digit decimal; --format picks csv (default) or json, --out
redirects to a file.  Exit codes: 0 success, 1 verification failure, 2 usage
error or resource limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .core import BinaryWord, make_word
from .exactprob import (
    StateCapExceeded,
    exact_seen_probability,
    exhaustive_seen_probability,
    max_word_probability,
)
from .moments import growth_constant
from .montecarlo import RngConfig, coupling_chain_demo, estimate_seen_probability, \
    estimate_x_seen_in_y
from .recursions import u_table, vn_pair_recursion, vn_single_recursion
from . import sweeps


def _frac(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dec(x) -> str:
    return f"{float(x):.12f}"


def _emit(args, header: list[str], rows: list[list], json_obj) -> None:
    if args.format == "json":
        text = json.dumps(json_obj, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _probability(text: str) -> Fraction:
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"bad probability {text!r}: {err}")
    if not 0 < val < 1:
        raise argparse.ArgumentTypeError(f"probability must be in (0, 1), got {text}")
    return val


def _positive(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return val


def _nonnegative(text: str) -> int:
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return val


def _add_word_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="explicit 0/1 string")
    group.add_argument("--constant", type=_nonnegative, metavar="N",
                       help="the all-ones word of length N")
    group.add_argument("--alternating", type=_nonnegative, metavar="N",
                       help="1010... of length N")
    group.add_argument("--twoblock", nargs=2, type=_nonnegative,
                       metavar=("P", "Q"), help="P ones then Q zeros")


def _word_from_flags(args) -> BinaryWord:
    if args.word is not None:
        return make_word("explicit", bits=args.word)
    if args.constant is not None:
        return make_word("constant", args.constant)
    if args.alternating is not None:
        return make_word("alternating", args.alternating)
    p, q = args.twoblock
    return make_word("two_block", p=p, q=q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_vn(args) -> int:
    table = vn_pair_recursion(args.M, args.N + 1)
    header = ["n", "vn", "vn_decimal", "vnprime", "vnprime_decimal", "ratio_next"]
    rows, entries = [], []
    for n in range(args.N + 1):
        ratio = table.ratio(n)
        rows.append([n, _frac(table.v[n]), _dec(table.v[n]),
                     _frac(table.vprime[n]), _dec(table.vprime[n]), _dec(ratio)])
        entries.append({"n": n, "vn": _frac(table.v[n]),
                        "vn_decimal": _dec(table.v[n]),
                        "vnprime": _frac(table.vprime[n]),
                        "vnprime_decimal": _dec(table.vprime[n]),
                        "ratio_next": _dec(ratio)})
    _emit(args, header, rows, {"M": args.M, "N": args.N, "rows": entries})
    return 0


def cmd_verify(args) -> int:
    flags = {flag: getattr(args, flag) for flag in ("M", "n", "N", "trials", "seed")
             if getattr(args, flag) is not None}
    res = sweeps.run_suite(args.suite, **flags)
    lines = [res.name] + res.details
    lines.append("PASS" if res.ok else
                 f"FAIL ({res.counterexample or 'see details'})")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if res.ok else 1


def cmd_exact(args) -> int:
    word = _word_from_flags(args)
    if args.oracle and args.p != Fraction(1, 2):
        raise UsageError("the enumeration oracle assumes a fair coin, drop --p")
    prob = exact_seen_probability(word, args.M, args.p)
    header = ["word", "M", "p", "probability", "decimal"]
    row = [str(word), args.M, _frac(args.p), _frac(prob), _dec(prob)]
    obj = {"word": str(word), "M": args.M, "p": _frac(args.p),
           "probability": _frac(prob), "decimal": _dec(prob)}
    if args.oracle:
        oracle = exhaustive_seen_probability(word, args.M)
        header += ["oracle", "agrees"]
        row += [_frac(oracle), prob == oracle]
        obj["oracle"] = _frac(oracle)
        obj["agrees"] = bool(prob == oracle)
    _emit(args, header, [row], obj)
    return 0 if not args.oracle or prob == oracle else 1


def cmd_maxword(args) -> int:
    out = max_word_probability(args.n, args.M)
    header = ["n", "M", "probability", "decimal", "maximizers"]
    words = " ".join(str(w) for w in out.words)
    _emit(args, header,
          [[args.n, args.M, _frac(out.probability), _dec(out.probability), words]],
          {"n": args.n, "M": args.M, "probability": _frac(out.probability),
           "decimal": _dec(out.probability),
           "maximizers": [str(w) for w in out.words]})
    return 0


def cmd_cm(args) -> int:
    c = growth_constant(args.M, tol=args.tol)
    value = _dec(c.by_bisection)
    header = ["M", "c", "by_bisection", "by_ratio", "tol"]
    _emit(args, header,
          [[args.M, value, value, _dec(c.by_ratio), repr(args.tol)]],
          {"M": args.M, "c": value, "by_bisection": value,
           "by_ratio": _dec(c.by_ratio), "tol": repr(args.tol)})
    return 0


def cmd_twoblock(args) -> int:
    table = u_table(args.M, args.p, args.q)
    word = make_word("two_block", p=args.p, q=args.q)
    prob = exact_seen_probability(word, args.M)
    u = table.u[args.p][args.q]
    v = vn_single_recursion(args.M, args.p + args.q)[args.p + args.q]
    sandwich = prob <= u <= v
    header = ["p", "q", "M", "probability", "prob_decimal", "u", "u_decimal",
              "v", "v_decimal", "sandwich"]
    _emit(args, header,
          [[args.p, args.q, args.M, _frac(prob), _dec(prob), _frac(u), _dec(u),
            _frac(v), _dec(v), sandwich]],
          {"p": args.p, "q": args.q, "M": args.M,
           "probability": _frac(prob), "prob_decimal": _dec(prob),
           "u": _frac(u), "u_decimal": _dec(u),
           "v": _frac(v), "v_decimal": _dec(v), "sandwich": bool(sandwich)})
    return 0 if sandwich else 1


def cmd_simulate(args) -> int:
    rng = RngConfig(args.seed)
    if args.p_x is not None or args.p_y is not None:
        if args.p_x is None or args.p_y is None or args.n is None:
            raise UsageError("cross estimation needs --p-x, --p-y, and --n")
        if (args.word is not None or args.constant is not None
                or args.alternating is not None or args.twoblock is not None):
            raise UsageError("cross estimation draws its own words; drop the "
                             "word flags")
        est = estimate_x_seen_in_y(args.M, float(args.p_x), float(args.p_y),
                                   args.n, args.trials, rng)
        header = ["M", "p_x", "p_y", "n", "trials", "estimate", "stderr", "seed"]
        _emit(args, header,
              [[args.M, float(args.p_x), float(args.p_y), args.n, args.trials,
                _dec(est.estimate), _dec(est.stderr), args.seed]],
              est.to_json_dict())
        return 0
    if (args.word is None and args.constant is None
            and args.alternating is None and args.twoblock is None):
        raise UsageError("simulate needs a word flag or the cross-mode flags")
    word = _word_from_flags(args)
    est = estimate_seen_probability(word, args.M, float(args.p), args.trials, rng)
    header = ["word", "M", "p", "trials", "estimate", "stderr", "seed"]
    _emit(args, header,
          [[str(word), args.M, float(args.p), args.trials, _dec(est.estimate),
            _dec(est.stderr), args.seed]],
          est.to_json_dict())
    return 0


def cmd_couple(args) -> int:
    report = coupling_chain_demo(float(args.p_x), float(args.p_y),
                                 length=args.n, samples=args.trials,
                                 rng=RngConfig(args.seed))
    header = ["stage", "p_in", "p1", "p_out"]
    rows = [[i + 1, s.p_in, s.p1, s.p_out] for i, s in enumerate(report.stages)]
    rows.append(["summary", report.window, report.witness_failures,
                 _dec(report.empirical)])
    _emit(args, header, rows, report.to_json_dict())
    return 0 if report.ok else 1


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordseen",
        description="Exact values, bounds, verification sweeps, and "
                    "simulations for words seen in coin-flip sequences.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", metavar="FILE")
    subs = parser.add_subparsers(dest="command", required=True)

    p_vn = subs.add_parser("vn", parents=[common],
                           help="alternating-word probability table")
    p_vn.add_argument("--M", type=int, required=True)
    p_vn.add_argument("--N", type=_nonnegative, required=True)
    p_vn.set_defaults(fn=cmd_vn, need_M2=True)

    p_verify = subs.add_parser("verify", parents=[common],
                               help="run an invariant suite")
    p_verify.add_argument("suite", choices=tuple(sweeps.SUITES))
    p_verify.add_argument("--M", type=_positive)
    p_verify.add_argument("--n", type=_positive)
    p_verify.add_argument("--N", type=_positive)
    p_verify.add_argument("--trials", type=_positive)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(fn=cmd_verify)

    p_exact = subs.add_parser("exact", parents=[common],
                              help="exact probability that a word is seen")
    _add_word_flags(p_exact)
    p_exact.add_argument("--M", type=_positive, required=True)
    p_exact.add_argument("--p", type=_probability, default=Fraction(1, 2))
    p_exact.add_argument("--oracle", action="store_true",
                         help="cross-check against full prefix enumeration")
    p_exact.set_defaults(fn=cmd_exact)

    p_max = subs.add_parser("maxword", parents=[common],
                            help="largest seen probability over words of one length")
    p_max.add_argument("--n", type=_positive, required=True)
    p_max.add_argument("--M", type=_positive, required=True)
    p_max.set_defaults(fn=cmd_maxword)

    p_cm = subs.add_parser("cm", parents=[common],
                           help="growth constant of the surplus moment")
    p_cm.add_argument("--M", type=_positive, required=True)
    p_cm.add_argument("--tol", type=float, default=1e-9)
    p_cm.set_defaults(fn=cmd_cm)

    p_two = subs.add_parser("twoblock", parents=[common],
                            help="two-block word: exact value, bound, sandwich")
    p_two.add_argument("--p", type=_nonnegative, required=True,
                       help="ones-block length")
    p_two.add_argument("--q", type=_nonnegative, required=True,
                       help="zeros-block length")
    p_two.add_argument("--M", type=int, required=True)
    p_two.set_defaults(fn=cmd_twoblock, need_M2=True)

    p_sim = subs.add_parser("simulate", parents=[common],
                            help="Monte Carlo estimate of a seen probability")
    group = p_sim.add_mutually_exclusive_group(required=False)
    group.add_argument("--word", help="explicit 0/1 string")
    group.add_argument("--constant", type=_nonnegative, metavar="N")
    group.add_argument("--alternating", type=_nonnegative, metavar="N")
    group.add_argument("--twoblock", nargs=2, type=_nonnegative,
                       metavar=("P", "Q"))
    p_sim.add_argument("--M", type=_positive, required=True)
    p_sim.add_argument("--p", type=_probability, default=Fraction(1, 2))
    p_sim.add_argument("--p-x", dest="p_x", type=_probability,
                       help="density of the random word (cross mode)")
    p_sim.add_argument("--p-y", dest="p_y", type=_probability,
                       help="density of the sequence (cross mode)")
    p_sim.add_argument("--n", type=_positive,
                       help="random word length (cross mode)")
    p_sim.add_argument("--trials", type=_positive, default=10 ** 5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(fn=cmd_simulate)

    p_couple = subs.add_parser("couple", parents=[common],
                               help="density-changing chain with certificates")
    p_couple.add_argument("--p-x", dest="p_x", type=_probability, required=True,
                          help="source density")
    p_couple.add_argument("--p-y", dest="p_y", type=_probability, required=True,
                          help="target density")
    p_couple.add_argument("--n", type=_positive, default=32,
                          help="final word length")
    p_couple.add_argument("--trials", type=_positive, default=200)
    p_couple.add_argument("--seed", type=int, default=0)
    p_couple.set_defaults(fn=cmd_couple)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "need_M2", False) and args.M < 2:
        parser.error(f"--M must be at least 2, got {args.M}")
    try:
        return args.fn(args)
    except UsageError as err:
        parser.error(str(err))
    except (ValueError, KeyError) as err:
        parser.error(str(err))
    except StateCapExceeded as err:
        parser.exit(2, f"{parser.prog}: resource limit: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
