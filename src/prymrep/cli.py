"""Command-line front end: evaluate words, check membership, decompose,
run the fox oracle, and run the self-test sweeps.

Exit codes are a stable contract: 0 for success or a positive membership
verdict, 1 for a clean negative (non-member, failed self-test), 2 for usage,
parse or range errors.  All input and output crosses the boundary as text in
the ring-literal, matrix and word grammars.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .cyclotomic import MAX_D, ParseError, euler_phi
from .decompose import decompose_delta, reduce_lambda
from .foxcover import _checked, check_member, eta, parse_endo_images
from .predicates import GroupTag, is_member
from .ringlinalg import BlockMat, parse_matrix
from .wordlang import evaluate, parse as parse_word


MAX_G = 200  # largest genus; eval --d 3 --g 200 --word T prints 396^2 entries
MAX_SELFTEST_WORK = 50_000  # phi(d) * g^3 summed over the selftest cells; see README


def _add_dg(p):
    p.add_argument("--d", type=int, required=True, help="covering degree, d >= 2")
    p.add_argument("--g", type=int, required=True, help="genus, g >= 2")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="prymrep",
        description="Exact Prym representation matrices for handlebody and "
                    "twist groups over Z[zeta_d].",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a generator word to a matrix")
    _add_dg(pe)
    pe.add_argument("--word", required=True, help="word in the generator grammar")

    pc = sub.add_parser("check", help="decide membership of a matrix in a group")
    _add_dg(pc)
    pc.add_argument("--matrix", required=True, help="matrix in text format")
    pc.add_argument("--group", required=True,
                    choices=[t.value for t in GroupTag], help="group tag")

    pd = sub.add_parser("decompose-delta",
                        help="write [[Id,B],[0,Id]] as a twist-generator word")
    _add_dg(pd)
    pd.add_argument("--B", required=True, dest="b",
                    help="self-adjoint (g-1)-square matrix in text format")

    pr = sub.add_parser("reduce-lambda",
                        help="extend a witness word for D to a word for M")
    _add_dg(pr)
    pr.add_argument("--matrix", required=True, help="the Lambda element M")
    pr.add_argument("--word", required=True,
                    help="witness word with the same lower-right block as M")

    pf = sub.add_parser("fox", help="eta matrix of a free-group automorphism")
    _add_dg(pf)
    pf.add_argument("--map", required=True, dest="map_text",
                    help="images, e.g. 'x1 -> x2 x1 x2^-1 ; x2 -> x2'")
    pf.add_argument("--inverse", required=True, dest="inverse_text",
                    help="inverse images (the automorphism certificate)")

    ps = sub.add_parser("selftest", help="run the identity and round-trip sweeps")
    ps.add_argument("--max-d", type=int, default=6)
    ps.add_argument("--max-g", type=int, default=3)
    ps.add_argument("--seed", type=int, default=0)

    return p


def _require_dg(args):
    if args.d < 2:
        raise ValueError("d must be >= 2")
    if args.g < 2:
        raise ValueError("g must be >= 2")
    if args.g > MAX_G:
        raise ValueError(f"genus g = {args.g} is over the budget MAX_G = {MAX_G}")


def cmd_eval(args) -> int:
    word = parse_word(args.word)
    print(evaluate(word, args.d, args.g).to_text())
    return 0


def cmd_check(args) -> int:
    m = BlockMat(parse_matrix(args.matrix, args.d), args.g)
    tag = GroupTag(args.group)
    verdict = is_member(m, tag)
    if verdict:
        print(f"member of {tag.value}")
        return 0
    print(f"non-member of {tag.value}: {verdict.reason}")
    return 1


def cmd_decompose_delta(args) -> int:
    b = parse_matrix(args.b, args.d)
    word = decompose_delta(b, args.d, args.g)
    print(word.render())
    return 0


def cmd_reduce_lambda(args) -> int:
    m = BlockMat(parse_matrix(args.matrix, args.d), args.g)
    witness = parse_word(args.word)
    print(reduce_lambda(m, witness).render())
    return 0


def cmd_fox(args) -> int:
    phi = _checked(parse_endo_images(args.map_text, args.g),  # checked and reduced words
                   parse_endo_images(args.inverse_text, args.g))
    verdict = check_member(phi, args.d)
    if not verdict:
        print(f"not a covering-preserving automorphism: {verdict.reason}")
        return 1
    print(eta(phi, args.d, args.g).to_text())
    return 0


def cmd_selftest(args) -> int:
    from .sweeps import run_selftest  # imported here: no other command needs the sweeps
    if args.max_d < 2 or args.max_g < 2:
        raise ValueError("--max-d and --max-g must be >= 2")
    if args.max_d > MAX_D:
        raise ValueError(f"--max-d {args.max_d} is over the budget MAX_D = {MAX_D}")
    if args.max_g > MAX_G:
        raise ValueError(f"--max-g {args.max_g} is over the budget MAX_G = {MAX_G}")
    work = (sum(map(euler_phi, range(2, args.max_d + 1)))
            * sum(g ** 3 for g in range(2, args.max_g + 1)))
    if work > MAX_SELFTEST_WORK:
        raise ValueError(f"selftest work {work} (phi(d) * g^3 summed over the cells) "
                         f"is over the budget MAX_SELFTEST_WORK = {MAX_SELFTEST_WORK}")
    ok = True
    for rep in run_selftest(args.max_d, args.max_g, seed=args.seed):
        print(rep.line(), flush=True)  # shown even if a later suite raises
        ok = ok and rep.ok
    print("selftest:", "all suites passed" if ok else "FAILURES above")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so a rebound cmd_* (a tracer, a test double) is seen
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if "d" in vars(args):  # a command built with _add_dg
            _require_dg(args)
        return command(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
