"""Command line front end.

Every subcommand is deterministic given its flags.  Exact values print as
num/den plus a 12-digit decimal; --format picks csv (default) or json for
the tables, while verify prints its plain-text report under either; --out
FILE is opened before the command runs, as a shell redirect is.  Exit codes:
0 success, 1 verification failure (a failed certificate included), 2 usage
error or resource limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from fractions import Fraction

from .core import BinaryWord
from .exactprob import (
    StateCapExceeded,
    exact_seen_probability,
    exhaustive_seen_probability,
    max_word_probability,
)
from .moments import growth_constant
from .montecarlo import RngConfig, coupling_chain_demo, estimate_seen_probability, \
    estimate_x_seen_in_y
from .recursions import u_table, vn_pair_recursion
from . import sweeps


def _dec(x) -> str:
    return f"{float(x):.12f}"


def _emit(args, rows: list[dict], doc=None) -> None:
    """Write rows as CSV, headed by the first row's keys, with list cells
    joined by spaces; or write doc, by default the one row, as JSON."""
    if args.format == "json":
        args.stream.write(json.dumps(rows[0] if doc is None else doc,
                                     sort_keys=True, indent=2) + "\n")
    else:
        writer = csv.writer(args.stream, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([" ".join(cell) if isinstance(cell, list) else cell
                          for cell in row.values()] for row in rows)


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


def _add_word_flags(sub: argparse.ArgumentParser, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--word", help="explicit 0/1 string")
    group.add_argument("--constant", type=_nonnegative, metavar="N",
                       help="the all-ones word of length N")
    group.add_argument("--alternating", type=_nonnegative, metavar="N",
                       help="1010... of length N")
    group.add_argument("--twoblock", nargs=2, type=_nonnegative,
                       metavar=("P", "Q"), help="P ones then Q zeros")


def _word_from_flags(args) -> BinaryWord | None:
    if args.word is not None:
        return BinaryWord(args.word)
    if args.constant is not None:
        return BinaryWord.constant(1, args.constant)
    if args.alternating is not None:
        return BinaryWord.alternating(1, args.alternating)
    if args.twoblock is not None:
        return BinaryWord.two_block(*args.twoblock)
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_vn(args) -> int:
    table = vn_pair_recursion(args.M, args.N + 1)
    rows = [{"n": n, "vn": str(table.v[n]), "vn_decimal": _dec(table.v[n]),
             "vnprime": str(table.vprime[n]),
             "vnprime_decimal": _dec(table.vprime[n]),
             "ratio_next": _dec(table.ratio(n))} for n in range(args.N + 1)]
    _emit(args, rows, {"M": args.M, "N": args.N, "rows": rows})
    return 0


def cmd_verify(args) -> int:
    flags = {flag: getattr(args, flag) for flag in ("M", "n", "N", "trials", "seed")
             if getattr(args, flag) is not None}
    res = sweeps.run_suite(args.suite, **flags)
    lines = [res.name] + res.details
    lines.append("PASS" if res.ok else
                 f"FAIL ({res.counterexample or 'see details'})")
    args.stream.write("\n".join(lines) + "\n")
    return 0 if res.ok else 1


def cmd_exact(args) -> int:
    word = _word_from_flags(args)
    prob = exact_seen_probability(word, args.M, args.p)
    row = {"word": str(word), "M": args.M, "p": str(args.p),
           "probability": str(prob), "decimal": _dec(prob)}
    agrees = True
    if args.oracle:
        oracle = exhaustive_seen_probability(word, args.M, args.p)
        agrees = prob == oracle
        row.update(oracle=str(oracle), agrees=agrees)
    _emit(args, [row])
    return 0 if agrees else 1


def cmd_maxword(args) -> int:
    out = max_word_probability(args.n, args.M)[-1]
    _emit(args, [{"n": args.n, "M": args.M, "probability": str(out.probability),
                  "decimal": _dec(out.probability),
                  "maximizers": [str(w) for w in out.words]}])
    return 0


def cmd_cm(args) -> int:
    c = growth_constant(args.M, tol=args.tol)
    value = _dec(c.by_bisection)
    _emit(args, [{"M": args.M, "c": value, "by_bisection": value,
                  "by_ratio": _dec(c.by_ratio), "tol": repr(args.tol)}])
    return 0 if abs(c.by_bisection - c.by_ratio) <= args.tol else 1


def cmd_twoblock(args) -> int:
    table = u_table(args.M, args.p, args.q)
    word = BinaryWord.two_block(args.p, args.q)
    prob = exact_seen_probability(word, args.M)
    u = table.u[args.p][args.q]
    v = u + table.delta[args.p][args.q]
    sandwich = prob <= u <= v
    _emit(args, [{"p": args.p, "q": args.q, "M": args.M,
                  "probability": str(prob), "prob_decimal": _dec(prob),
                  "u": str(u), "u_decimal": _dec(u),
                  "v": str(v), "v_decimal": _dec(v), "sandwich": sandwich}])
    return 0 if sandwich else 1


def cmd_simulate(args) -> int:
    rng = RngConfig(args.seed)
    word = _word_from_flags(args)
    cross = (args.p_x, args.p_y, args.n)
    if word is not None:
        if cross != (None, None, None):
            raise ValueError("word mode reads no --p-x, --p-y or --n; drop them")
        est = estimate_seen_probability(word, args.M, float(args.p or 0.5),
                                        args.trials, rng)
    elif None in cross:
        raise ValueError("simulate needs a word flag, or --p-x, --p-y and --n")
    elif args.p is not None:
        raise ValueError("cross estimation draws at --p-x and --p-y; drop --p")
    else:
        est = estimate_x_seen_in_y(args.M, float(args.p_x), float(args.p_y),
                                   args.n, args.trials, rng)
    doc = asdict(est)
    _emit(args, [dict(doc, estimate=_dec(est.estimate), stderr=_dec(est.stderr))],
          doc)
    return 0


def cmd_couple(args) -> int:
    report = coupling_chain_demo(float(args.p_x), float(args.p_y),
                                 length=args.n, samples=args.trials,
                                 rng=RngConfig(args.seed))
    cells = [(i + 1, s.p_in, s.p1, s.p_out) for i, s in enumerate(report.stages)]
    cells.append(("summary", report.window, report.witness_failures,
                  _dec(report.empirical)))
    _emit(args, [dict(zip(("stage", "p_in", "p1", "p_out"), c)) for c in cells],
          report.to_json_dict())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; main runs cmd_<command> from the module
    at call time, so a replaced cmd_* is the one that runs."""
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

    p_verify = subs.add_parser("verify", parents=[common],
                               help="run an invariant suite")
    p_verify.add_argument("suite", choices=tuple(sweeps.SUITES))
    p_verify.add_argument("--M", type=_positive)
    p_verify.add_argument("--n", type=_positive)
    p_verify.add_argument("--N", type=_positive)
    p_verify.add_argument("--trials", type=_positive)
    p_verify.add_argument("--seed", type=_nonnegative)

    p_exact = subs.add_parser("exact", parents=[common],
                              help="exact probability that a word is seen")
    _add_word_flags(p_exact)
    p_exact.add_argument("--M", type=_positive, required=True)
    p_exact.add_argument("--p", type=_probability, default=Fraction(1, 2))
    p_exact.add_argument("--oracle", action="store_true",
                         help="cross-check against full prefix enumeration")

    p_max = subs.add_parser("maxword", parents=[common],
                            help="largest seen probability over words of one length")
    p_max.add_argument("--n", type=_positive, required=True)
    p_max.add_argument("--M", type=_positive, required=True)

    p_cm = subs.add_parser("cm", parents=[common],
                           help="growth constant of the surplus moment")
    p_cm.add_argument("--M", type=_positive, required=True)
    p_cm.add_argument("--tol", type=float, default=1e-9)

    p_two = subs.add_parser("twoblock", parents=[common],
                            help="two-block word: exact value, bound, sandwich")
    p_two.add_argument("--p", type=_nonnegative, required=True,
                       help="ones-block length")
    p_two.add_argument("--q", type=_nonnegative, required=True,
                       help="zeros-block length")
    p_two.add_argument("--M", type=int, required=True)

    p_sim = subs.add_parser("simulate", parents=[common],
                            help="Monte Carlo estimate of a seen probability")
    _add_word_flags(p_sim, required=False)
    p_sim.add_argument("--M", type=_positive, required=True)
    p_sim.add_argument("--p", type=_probability, help="sequence density (word mode, default 1/2)")
    p_sim.add_argument("--p-x", dest="p_x", type=_probability,
                       help="density of the random word (cross mode)")
    p_sim.add_argument("--p-y", dest="p_y", type=_probability,
                       help="density of the sequence (cross mode)")
    p_sim.add_argument("--n", type=_positive,
                       help="random word length (cross mode)")
    p_sim.add_argument("--trials", type=_positive, default=10 ** 5)
    p_sim.add_argument("--seed", type=_nonnegative, default=0)

    p_couple = subs.add_parser("couple", parents=[common],
                               help="density-changing chain with certificates")
    p_couple.add_argument("--p-x", dest="p_x", type=_probability, required=True,
                          help="source density")
    p_couple.add_argument("--p-y", dest="p_y", type=_probability, required=True,
                          help="target density")
    p_couple.add_argument("--n", type=_positive, default=32,
                          help="final word length")
    p_couple.add_argument("--trials", type=_positive, default=200)
    p_couple.add_argument("--seed", type=_nonnegative, default=0)
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact values of any size print
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # --out is opened, and truncated, before the work, as "> FILE" is
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as args.stream:
            return globals()[f"cmd_{args.command}"](args)
    except ValueError as err:
        parser.error(str(err))
    except StateCapExceeded as err:
        parser.exit(2, f"{parser.prog}: resource limit: {err}\n")
    except AssertionError as err:  # a certificate a suite does not report itself
        parser.exit(1, f"{parser.prog}: verification failed: {err}\n")
    except OSError as err:  # --out names a path that open refuses
        parser.exit(2, f"{parser.prog}: cannot write output: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
