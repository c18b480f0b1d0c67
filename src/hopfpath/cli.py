"""Command-line interface: one subcommand per library operation.

Exit codes: 0 on success, 1 when a check reports violations, 2 on usage or
parse errors.  Output is deterministic for fixed flags and seed; exact scalars
print as p/q, floats with 12 significant digits.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction

from .hopf_core import check_axioms, get_instance
from .hopf_ck import enumerate_cuts, phi_hat_lin, phi_lin, psi_lin
from .linalg import (
    Combination,
    LinComb,
    TensorComb,
    format_lincomb,
    format_scalar,
    lincomb_to_json,
    pair,
)
from .model_rde import ModelError, VectorField, check_model, model_from_lift, picard_solve
from .roughpath import (
    PiecewiseLinearPath,
    RoughPathConfig,
    branched_lift_fn,
    branched_to_geo,
    check_rough_axioms,
    geo_to_branched,
    q_gamma,
    signature_lift,
    to_fraction,
)
from .series import TruncatedElement, bch, exp_trunc, homog_norm, log_trunc
from .symbols import ParseError, parse_expr

_KIND_BY_ALGEBRA = {
    "poly": "multiindex",
    "shuffle": "word",
    "concat": "word",
    "ck": "forest",
    "gl": "forest",
}


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--dim", type=int, default=2, help="alphabet size d (default 2)")
    parser.add_argument(
        "--algebra",
        choices=sorted(_KIND_BY_ALGEBRA),
        default="shuffle",
        help="Hopf algebra instance",
    )
    parser.add_argument("--truncation", type=int, default=4, help="truncation level")
    parser.add_argument("--gamma", type=str, default="1/3", help="Hölder exponent")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed for checks")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--float", action="store_true", help="print scalars as floats")


def _parse(args, text: str) -> LinComb:
    return parse_expr(text, _KIND_BY_ALGEBRA[args.algebra], args.dim)


def _emit(args, x: Combination):
    """Print a LinComb or TensorComb as text or JSON; tensor text lists terms in
    descending basis order."""
    if args.format == "json":
        print(json.dumps(lincomb_to_json(x, args.float), ensure_ascii=False))
    else:
        print(format_lincomb(x, args.float, descending=isinstance(x, TensorComb)))


def _emit_report(args, report, text: str) -> int:
    """Print a check report as text or JSON; the exit code is 1 on any failure."""
    if args.format == "json":
        print(json.dumps(report.to_json(), ensure_ascii=False))
    else:
        print(text)
    return 0 if report.passed else 1


def _gamma(args) -> Fraction:
    return to_fraction(args.gamma)


def _grid(path: PiecewiseLinearPath, points: int, flavor: str, level: int,
          products: int) -> list[Fraction]:
    """``points`` evenly spaced times on the path, for a command that makes
    ``products`` products of lift values of this flavor and level; exit 2
    for fewer than 2 points, or for products visiting more than _GRID_CAP
    basis pairs in all."""
    if points < 2:
        raise ValueError(f"--grid must be at least 2, got {points}")
    if _product_work("word" if flavor == "geometric" else "forest", path.dim, level,
                     products) > _GRID_CAP:
        raise ValueError(
            f"--grid {points} is too large at level {level}: the {flavor} lift values on "
            f"that grid take products visiting more than {_GRID_CAP} basis pairs"
        )
    lo, hi = path.times[0], path.times[-1]
    return [lo + (hi - lo) * Fraction(i, points - 1) for i in range(points)]


def _single_forest(args, text: str):
    comb = parse_expr(text, "forest", args.dim)
    if len(comb) != 1 or next(iter(comb))[1] != 1:
        raise ValueError(f"{args.command} expects a single forest, not a combination")
    return next(iter(comb))[0]


# largest basis, over all grades up to the truncation level, a command will build
_BASIS_CAP = 10**6
# most basis pairs plus triples within the grade bound check-axioms will visit
_WORK_CAP = 10**6
# most subsets or placements the word maps of check-axioms will enumerate
_ENUMERATION_CAP = 10**6
# most coproduct terms and term pairs the laws of check-axioms will multiply
_TERM_CAP = 10**6
# most basis pairs the products of lift values on a --grid will visit
_GRID_CAP = 10**6
# most Picard steps rde will take, each sample kept in memory
_STEP_CAP = 10**5


def _grade_sizes(kind: str, d: int):
    """The number of basis elements of grade 0, 1, 2, ..., counted without
    enumerating them; every grade has at least one."""
    forests, trees, divisor_sums = [1], [0], [0]
    for n in itertools.count():
        if kind == "multiindex":
            yield math.comb(n + d - 1, d - 1)
        elif kind == "word":
            yield d**n
        elif n == 0:
            yield 1
        else:
            # t_n = d f_{n-1}; f by the Euler transform n f_n = sum_k c_k f_{n-k},
            # with c_k = sum_{j | k} j t_j
            trees.append(d * forests[n - 1])
            divisor_sums.append(sum(j * trees[j] for j in range(1, n + 1) if n % j == 0))
            forests.append(sum(divisor_sums[k] * forests[n - k] for k in range(1, n + 1)) // n)
            yield forests[n]


def _basis_size(kind: str, d: int, level: int) -> int:
    """Basis elements of grade <= level, counted without enumerating them.

    The count stops once it passes _BASIS_CAP.
    """
    if level >= _BASIS_CAP:
        return level + 1  # every grade has an element
    total = 0
    for size in itertools.islice(_grade_sizes(kind, d), level + 1):
        total += size
        if total > _BASIS_CAP:
            break
    return total


def _check_size(option: str, level: int, basis: str, kind: str, d: int):
    """Raise ValueError (exit 2) before building a basis of more than _BASIS_CAP elements."""
    if level >= 0 and _basis_size(kind, d, level) > _BASIS_CAP:
        raise ValueError(
            f"{option} {level} is too large: the {basis} basis up to that grade "
            f"has more than {_BASIS_CAP} elements"
        )


def _check_steps(step: Fraction, start: Fraction, end: Fraction):
    """Raise ValueError (exit 2) before a solve of more than _STEP_CAP steps."""
    if step > 0 and end > start and math.ceil((end - start) / step) > _STEP_CAP:
        raise ValueError(
            f"--step {step} is too small: the solve up to T={end} takes more than "
            f"{_STEP_CAP} steps"
        )


def _axiom_work(kind: str, d: int, max_grade: int) -> int:
    """Basis pairs plus triples of total grade <= max_grade, the tuples the
    exact laws of check-axioms visit, counted from the grade sizes (the grade-s
    pairs are sum_i n_i n_{s-i}, and the triples convolve those with n once
    more); the count stops once it passes _WORK_CAP."""
    sizes, pairs, total = [], [], 0
    for s, size in zip(range(max_grade + 1), _grade_sizes(kind, d)):
        sizes.append(size)
        pairs.append(sum(sizes[i] * sizes[s - i] for i in range(s + 1)))
        total += pairs[s] + sum(pairs[i] * sizes[s - i] for i in range(s + 1))
        if total > _WORK_CAP:
            break
    return total


def _product_work(kind: str, d: int, level: int, products: int) -> int:
    """Basis pairs that many products of two elements cut at the level visit:
    products times the pairs of total grade <= level, sum over s <= level of
    sum_i n_i n_{s-i}, from the grade sizes; the count stops once it passes
    _GRID_CAP."""
    sizes, total = [], 0
    for s, size in zip(range(level + 1), _grade_sizes(kind, d)):
        sizes.append(size)
        total += products * sum(sizes[i] * sizes[s - i] for i in range(s + 1))
        if total > _GRID_CAP:
            break
    return total


def _enumeration_work(algebra: str, d: int, max_grade: int, samples: int) -> int:
    """Subsets and placements the word maps of check-axioms enumerate, counted
    from the grade sizes d^n; each map runs once per argument.

    The deshuffle coproduct of ``concat`` takes all 2^n subsets of a grade-n
    word, and the shuffle product of ``shuffle`` C(i+j, i) placements for a
    pair of grades i and j.  The exact laws split every word, and multiply
    every pair, of total grade <= max_grade.  The random samples draw words
    of grade <= h = max(1, max_grade // 2): concat splits their products, of
    grade <= 2h, and shuffle multiplies those products by a word of grade
    <= h, either way round.  The other algebras enumerate nothing of this
    kind: 0.  The count stops once it passes _ENUMERATION_CAP.
    """
    if algebra not in ("concat", "shuffle"):
        return 0
    h = max(1, max_grade // 2)
    top = max_grade
    if samples > 0:
        top = max(top, 2 * h if algebra == "concat" else 3 * h)
    total = 0
    for s in range(top + 1):
        if algebra == "concat":
            total += d**s * 2**s
        else:
            total += d**s * sum(
                math.comb(s, i) for i in range(s + 1)
                if s <= max_grade or min(i, s - i) <= h and max(i, s - i) <= 2 * h
            )
        if total > _ENUMERATION_CAP:
            break
    return total


def _coproduct_terms(algebra: str, d: int):
    """Per grade n, bounds (c_n, t_n) on the coproduct terms of all the
    grade-n basis elements and on the terms of (Delta (x) id) Delta over
    them, counted from the grade sizes without enumerating.

    A term of Delta b splits b in two, and one of (Delta (x) id) Delta b in
    three.  poly: the ways to write a grade-n multi-index of d entries as a
    sum of two or three (exact).  shuffle: the n + 1 cut points of a word
    and the (n + 1)(n + 2)/2 pairs of them (exact).  concat: the ways to
    split the letters into two or three subsequences, at most d^n distinct
    for each split of the length n.  ck and gl: at most 2^n and 3^n per
    element, vertices into cut-off and kept parts, trees into groups.
    """
    for n, size in enumerate(_grade_sizes(_KIND_BY_ALGEBRA[algebra], d)):
        if algebra == "poly":
            yield math.comb(n + 2 * d - 1, 2 * d - 1), math.comb(n + 3 * d - 1, 3 * d - 1)
        elif algebra == "shuffle":
            yield size * (n + 1), size * (n + 1) * (n + 2) // 2
        elif algebra == "concat":
            top = d**n
            yield (
                size * sum(min(math.comb(n, i), top) for i in range(n + 1)),
                size * sum(min(math.comb(n, i) * math.comb(n - i, j), top)
                           for i in range(n + 1) for j in range(n - i + 1)),
            )
        else:
            yield size * 2**n, size * 3**n


def _term_work(algebra: str, d: int, max_grade: int) -> int:
    """Coproduct terms and term pairs the exact laws of check-axioms
    multiply, from the bounds of ``_coproduct_terms``: compatibility
    multiplies the c_i c_j term pairs over the grades i + j <= max_grade,
    coassociativity walks the t_n terms on each side, and the antipode law
    the c_n terms on each side.  The count stops once it passes _TERM_CAP.
    """
    total, cs = 0, []
    for n, (c, t) in zip(range(max_grade + 1), _coproduct_terms(algebra, d)):
        cs.append(c)
        total += sum(cs[i] * cs[n - i] for i in range(n + 1)) + 2 * t + 2 * c
        if total > _TERM_CAP:
            break
    return total


def _truncated(args, x: LinComb) -> TruncatedElement:
    _check_size("truncation", args.truncation, args.algebra, _KIND_BY_ALGEBRA[args.algebra],
                args.dim)
    return TruncatedElement.make(x, args.truncation, get_instance(args.algebra, args.dim))


def _check_level(level: int, d: int, *flavors: str):
    """Guard --level for lifts of the given flavors over a d-dimensional path."""
    for flavor in flavors:
        kind = "word" if flavor == "geometric" else "forest"
        _check_size("level", level, f"{flavor} ({kind})", kind, d)


def _emit_samples(samples):
    """Print rde samples as CSV; name on stderr the first float after an exact start."""
    if not samples:
        return
    print("t,y")
    for t, y in samples:
        try:
            print(f"{float(t):.12g},{float(y):.12g}")
        except OverflowError:
            raise ModelError(
                f"the exact state at t={float(t):.12g} is outside the floating range"
            ) from None
    floats = [t for t, y in samples if isinstance(y, float)]
    if floats and not isinstance(samples[0][1], float):
        print(f"note: the state left exact arithmetic at t={float(floats[0]):.12g}; "
              "it and later samples are floats", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hopfpath",
        description="Exact combinatorial Hopf algebras and rough-path calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _common_flags(p)
        return p

    p = add("product", help="product of two elements")
    p.add_argument("x")
    p.add_argument("y")

    p = add("coproduct", help="coproduct of an element")
    p.add_argument("x")

    p = add("antipode", help="antipode of an element")
    p.add_argument("x")
    p.add_argument("--engine", choices=["recursive", "closed"], default="recursive")

    p = add("pair", help="duality pairing of two elements")
    p.add_argument("x")
    p.add_argument("y")

    p = add("check-axioms", help="verify the Hopf axioms exactly")
    p.add_argument("--max-grade", type=int, default=4)
    p.add_argument("--samples", type=int, default=500)

    for name in ("exp", "log", "norm"):
        p = add(name, help=f"truncated {name}")
        p.add_argument("x")

    p = add("bch", help="Baker-Campbell-Hausdorff combination")
    p.add_argument("x")
    p.add_argument("y")

    p = add("cuts", help="admissible cuts of a forest with multiplicities")
    p.add_argument("forest")

    p = add("convert", help="map between word and forest expressions")
    p.add_argument("--via", choices=["phi", "phihat", "psi"], required=True)
    p.add_argument("x")

    for name in ("signature", "branched-lift"):
        p = add(name, help=f"{name} of a piecewise-linear path on [from, to]")
        p.add_argument("path", help="CSV file with header t,x1,...,xd")
        p.add_argument("--level", type=int, default=3)
        p.add_argument("--from", dest="t_from", type=str, default=None)
        p.add_argument("--to", dest="t_to", type=str, default=None)

    p = add("check-rough", help="character/Chen/inverse and Hölder report")
    p.add_argument("path")
    p.add_argument("--flavor", choices=["geometric", "branched"], default="geometric")
    p.add_argument("--grid", type=int, default=9)
    p.add_argument("--level", type=int, default=None)

    p = add("check-model", help="model identities of the branched lift on a grid")
    p.add_argument("path")
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--level", type=int, default=None)

    p = add("qgamma", help="growth weight q_gamma of a forest")
    p.add_argument("forest")

    p = add("convert-lift", help="translate a lift between flavors, print at (from, to)")
    p.add_argument("path")
    p.add_argument("--direction", choices=["g2b", "b2g"], required=True)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--from", dest="t_from", type=str, default=None)
    p.add_argument("--to", dest="t_to", type=str, default=None)

    p = add("rde", help="solve dy = sum_i f_i(y) dx^i by truncated Picard steps")
    p.add_argument("path")
    p.add_argument("--f", dest="field", default="linear", help="const[:c]|linear|poly:c0,c1,...|sin")
    p.add_argument("--y0", type=str, default="0")
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--step", type=str, default="1/100")
    p.add_argument("--T", type=str, default=None)
    p.add_argument("--out", choices=["csv"], default="csv")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "product":
        inst = get_instance(args.algebra, args.dim)
        _emit(args, inst.product(_parse(args, args.x), _parse(args, args.y)))
        return 0
    if cmd == "coproduct":
        inst = get_instance(args.algebra, args.dim)
        _emit(args, inst.coproduct(_parse(args, args.x)))
        return 0
    if cmd == "antipode":
        inst = get_instance(args.algebra, args.dim)
        x = _parse(args, args.x)
        out = inst.antipode_closed(x) if args.engine == "closed" else inst.antipode(x)
        _emit(args, out)
        return 0
    if cmd == "pair":
        value = pair(_parse(args, args.x), _parse(args, args.y))
        print(format_scalar(value, args.float))
        return 0
    if cmd == "check-axioms":
        inst = get_instance(args.algebra, args.dim)  # rejects a dimension below 1
        # the pairs include every (b, 1), so this also caps the basis
        if _axiom_work(_KIND_BY_ALGEBRA[args.algebra], args.dim, args.max_grade) > _WORK_CAP:
            raise ValueError(
                f"max-grade {args.max_grade} is too large: the {args.algebra} axiom check up "
                f"to that grade visits more than {_WORK_CAP} basis pairs and triples"
            )
        enumerated = _enumeration_work(args.algebra, args.dim, args.max_grade, args.samples)
        if enumerated > _ENUMERATION_CAP:
            maps = {"concat": "subsets in its deshuffle coproducts",
                    "shuffle": "placements in its shuffle products"}
            raise ValueError(
                f"max-grade {args.max_grade} is too large: the {args.algebra} axiom check up "
                f"to that grade enumerates more than {_ENUMERATION_CAP} {maps[args.algebra]}"
            )
        if _term_work(args.algebra, args.dim, args.max_grade) > _TERM_CAP:
            raise ValueError(
                f"max-grade {args.max_grade} is too large: the {args.algebra} axiom check up "
                f"to that grade multiplies more than {_TERM_CAP} coproduct terms and term pairs"
            )
        report = check_axioms(inst, args.max_grade, args.samples, args.seed)
        return _emit_report(args, report, "OK" if report.passed else report.summary())
    if cmd == "exp":
        _emit(args, exp_trunc(_truncated(args, _parse(args, args.x))).value)
        return 0
    if cmd == "log":
        _emit(args, log_trunc(_truncated(args, _parse(args, args.x))).value)
        return 0
    if cmd == "bch":
        out = bch(_truncated(args, _parse(args, args.x)), _truncated(args, _parse(args, args.y)))
        _emit(args, out.value)
        return 0
    if cmd == "norm":
        print(f"{homog_norm(_truncated(args, _parse(args, args.x))):.12g}")
        return 0
    if cmd == "cuts":
        forest = _single_forest(args, args.forest)
        rows = [
            {"crown": str(c.crown), "trunk": str(c.trunk), "multiplicity": c.multiplicity}
            for c in enumerate_cuts(forest)
        ]
        if args.format == "json":
            print(json.dumps(rows, ensure_ascii=False))
        else:
            for row in rows:
                print(f"{row['crown']} | {row['trunk']} | {row['multiplicity']}")
        return 0
    if cmd == "convert":
        if args.via == "phi":
            out = phi_lin(parse_expr(args.x, "forest", args.dim))
        elif args.via == "phihat":
            out = phi_hat_lin(parse_expr(args.x, "word", args.dim))
        else:
            out = psi_lin(parse_expr(args.x, "forest", args.dim))
        _emit(args, out)
        return 0
    if cmd in ("signature", "branched-lift"):
        path = PiecewiseLinearPath.from_csv(args.path)
        _check_level(args.level, path.dim, "geometric" if cmd == "signature" else "branched")
        make = signature_lift if cmd == "signature" else branched_lift_fn
        lift = make(path, args.level)
        s = to_fraction(args.t_from) if args.t_from is not None else path.times[0]
        t = to_fraction(args.t_to) if args.t_to is not None else path.times[-1]
        _emit(args, lift.eval(s, t).value)
        return 0
    if cmd == "check-rough":
        path = PiecewiseLinearPath.from_csv(args.path)
        cfg = RoughPathConfig.make(_gamma(args), args.flavor)
        level = args.level if args.level is not None else cfg.level
        _check_level(level, path.dim, args.flavor)
        make = signature_lift if args.flavor == "geometric" else branched_lift_fn
        lift = make(path, level)
        # the Chen law's grid^3 products, and the Chen chains of the grid^2
        # values, up to knots - 2 products each
        knots = len(path.times)
        grid = _grid(path, args.grid, args.flavor, level,
                     args.grid**3 + args.grid**2 * (knots - 2))
        report = check_rough_axioms(lift, cfg, grid)
        return _emit_report(args, report, report.summary())
    if cmd == "check-model":
        path = PiecewiseLinearPath.from_csv(args.path)
        cfg = RoughPathConfig.make(_gamma(args), "branched")
        level = args.level if args.level is not None else cfg.level
        _check_level(level, path.dim, "branched")
        # per grid triple, the translation and cocycle laws visit 3.4, 5.2 and
        # 8.2 times the basis pairs of one product at levels 2, 3 and 4 (d = 2):
        # 5 products; and the Chen chains of the grid^2 values, up to knots - 2
        # products each
        grid = _grid(path, args.grid, "branched", level,
                     5 * args.grid**3 + args.grid**2 * (len(path.times) - 2))
        report = check_model(model_from_lift(branched_lift_fn(path, level), cfg.gamma), grid)
        return _emit_report(args, report, report.summary())
    if cmd == "qgamma":
        forest = _single_forest(args, args.forest)
        print(f"{q_gamma(forest, _gamma(args)):.12g}")
        return 0
    if cmd == "convert-lift":
        path = PiecewiseLinearPath.from_csv(args.path)
        _check_level(args.level, path.dim, "geometric", "branched")
        s = to_fraction(args.t_from) if args.t_from is not None else path.times[0]
        t = to_fraction(args.t_to) if args.t_to is not None else path.times[-1]
        if args.direction == "g2b":
            out = geo_to_branched(signature_lift(path, args.level))
        else:
            # grid^2 values, each a Chen chain of up to knots - 2 products,
            # then paired with the kernel of phi, weighed as one product more
            grid = _grid(path, args.grid, "branched", args.level,
                         args.grid**2 * (len(path.times) - 1))
            out = branched_to_geo(branched_lift_fn(path, args.level), grid)
        _emit(args, out.eval(s, t).value)
        return 0
    if cmd == "rde":
        path = PiecewiseLinearPath.from_csv(args.path)
        _check_level(args.level, path.dim, "branched")
        field = VectorField.from_spec(args.field, path.dim)
        end = to_fraction(args.T) if args.T is not None else None
        step = to_fraction(args.step)
        _check_steps(step, path.times[0], path.times[-1] if end is None else end)
        try:
            samples = picard_solve(path, field, to_fraction(args.y0), _gamma(args), args.level,
                                   step, T=end)
        except ModelError as exc:
            _emit_samples(exc.samples)
            raise
        _emit_samples(samples)
        return 0
    raise ValueError(f"unknown command {cmd!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
