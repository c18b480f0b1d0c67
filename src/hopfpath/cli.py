"""Command-line interface: one subcommand per library operation.

Exit codes: 0 on success, 1 when a check reports violations, 2 on usage or
parse errors and on work past the command's budget (``hopfpath.work``).  Each
command accepts only the flags its run reads: any other flag is a usage error
and exits 2, as does ``convert-lift --direction g2b`` with a ``--grid``.
Output is deterministic for fixed flags and seed; exact scalars print as
p/q, floats with 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import work
from .hopf_core import check_axioms, get_instance
from .hopf_ck import enumerate_cuts, phi, phi_hat, psi
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


# the flags that several commands share, each given only to those that read it
_FLAGS = {
    "dim": dict(type=int, default=2, help="alphabet size d (default 2)"),
    "algebra": dict(choices=sorted(_KIND_BY_ALGEBRA), default="shuffle",
                    help="Hopf algebra instance"),
    "truncation": dict(type=int, default=4, help="truncation level"),
    "gamma": dict(type=str, default="1/3", help="Hölder exponent"),
    "seed": dict(type=int, default=0, help="PRNG seed for checks"),
    "format": dict(choices=["text", "json"], default="text"),
    "float": dict(action="store_true", help="print scalars as floats"),
}

# per command, the _FLAGS its run reads, then what sizes its work: a budget
# refusal calls the first size the command line gives too large
_COMMANDS = {
    "product": ("dim algebra format float", "x y dim"),
    "coproduct": ("dim algebra format float", "x dim"),
    "antipode": ("dim algebra format float", "x dim"),
    "pair": ("dim algebra float", "x y dim"),
    "check-axioms": ("dim algebra seed format", "max_grade samples dim"),
    "exp": ("dim algebra truncation format float", "truncation x dim"),
    "log": ("dim algebra truncation format float", "truncation x dim"),
    "bch": ("dim algebra truncation format float", "truncation x y dim"),
    "norm": ("dim algebra truncation", "truncation x dim"),
    "cuts": ("dim format", "forest dim"),
    "convert": ("dim format float", "x dim"),
    "qgamma": ("dim gamma", "forest dim"),
    "signature": ("format float", "level"),
    "branched-lift": ("format float", "level"),
    "convert-lift": ("format float", "grid level"),  # no grid with --direction g2b
    "check-rough": ("gamma format", "grid level"),
    "check-model": ("gamma format", "grid level"),
    "rde": ("gamma", "level step"),
}


def _parse(args, text: str) -> LinComb:
    return parse_expr(text, _KIND_BY_ALGEBRA[args.algebra], args.dim)


def _emit(args, x: Combination):
    """Print a LinComb or TensorComb as text or JSON; tensor text lists terms in
    descending basis order.  A coefficient past Python's limit on the digits
    of an int turned into text raises ValueError naming the command's sizes."""
    try:
        if args.format == "json":
            text = json.dumps(lincomb_to_json(x, args.float), ensure_ascii=False)
        else:
            text = format_lincomb(x, args.float, descending=isinstance(x, TensorComb))
    except ValueError:  # "Exceeds the limit (4300 digits) for integer string conversion"
        raise ValueError(f"{_too_large(args)}: a coefficient passes Python's limit on "
                         "the digits of an int printed as text") from None
    print(text)


def _emit_report(args, report, text: str) -> int:
    """Print a check report as text or JSON; the exit code is 1 on any failure."""
    if args.format == "json":
        print(json.dumps(report.to_json(), ensure_ascii=False))
    else:
        print(text)
    return 0 if report.passed else 1


def _gamma(args) -> Fraction:
    return to_fraction(args.gamma)


def _config(args, flavor: str) -> RoughPathConfig:
    """The config of --gamma for the flavor; an unset --level becomes its level."""
    cfg = RoughPathConfig.make(_gamma(args), flavor)
    if args.level is None:
        args.level = cfg.level
    return cfg


def _window(args, path: PiecewiseLinearPath) -> tuple[Fraction, Fraction]:
    """--from and --to, the path's first and last times when unset."""
    s = path.times[0] if args.t_from is None else to_fraction(args.t_from)
    t = path.times[-1] if args.t_to is None else to_fraction(args.t_to)
    return s, t


def _grid(path: PiecewiseLinearPath, points: int) -> list[Fraction]:
    """``points`` evenly spaced times on the path, each charged as work;
    exit 2 for fewer than 2 points."""
    if points < 2:
        raise ValueError(f"--grid must be at least 2, got {points}")
    work.charge(points)
    lo, hi = path.times[0], path.times[-1]
    return [lo + (hi - lo) * Fraction(i, points - 1) for i in range(points)]


def _given(args, name: str) -> bool:
    """Whether the command line gives the option of ``name``, whole or abbreviated."""
    flag = f"--{name.replace('_', '-')}"
    return any(flag.startswith(a.split("=", 1)[0]) for a in args.argv
               if a.startswith("--") and len(a) > 2)


def _too_large(args) -> str:
    """The start of a refusal: a size of the command's work, called too
    large, at the others, each as "--option value" or "operand value".  The
    size called too large is the first in ``_COMMANDS`` order that the
    command line gives, operands included, or the first of all when it
    gives none; the others follow in that order."""
    names = _COMMANDS[args.command][1].split()
    if args.command == "convert-lift" and args.direction == "g2b":
        names.remove("grid")
    given = [n for n in names if n in ("forest", "x", "y") or _given(args, n)]
    if given:
        names.remove(given[0])
        names.insert(0, given[0])
    first, *rest = [f"{n} {getattr(args, n)}" if n in ("forest", "x", "y")
                    else f"--{n.replace('_', '-')} {getattr(args, n)}" for n in names]
    at = f" at {', '.join(rest)}" if rest else ""
    return f"{first} is too large{at}"


def _single_forest(args, text: str):
    comb = parse_expr(text, "forest", args.dim)
    if len(comb) != 1 or next(iter(comb))[1] != 1:
        raise ValueError(f"{args.command} expects a single forest, not a combination")
    return next(iter(comb))[0]


# most Picard steps rde will take, each sample kept in memory
_STEP_CAP = 10**5
# units of work (see hopfpath.work) one command may charge
_WORK_BUDGET = 3 * 10**6


def _check_steps(step: Fraction, start: Fraction, end: Fraction):
    """Raise ValueError (exit 2) before a solve of more than _STEP_CAP steps."""
    if step > 0 and end > start and math.ceil((end - start) / step) > _STEP_CAP:
        raise ValueError(
            f"--step {step} is too small: the solve up to T={end} takes more than "
            f"{_STEP_CAP} steps"
        )


def _truncated(args, x: LinComb) -> TruncatedElement:
    return TruncatedElement.make(x, args.truncation, get_instance(args.algebra, args.dim))


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
        for flag in _COMMANDS[name][0].split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
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

    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)  # what _too_large calls given
    try:
        with work.limit(_WORK_BUDGET):
            return _dispatch(args)
    except work.WorkBudgetExceeded:
        print(f"error: {_too_large(args)}: the {args.command} work passes its budget "
              f"of {_WORK_BUDGET} units", file=sys.stderr)
        return 2
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
        if args.via == "phihat":
            x, fn = parse_expr(args.x, "word", args.dim), lambda w: LinComb.term(phi_hat(w))
        else:
            x, fn = parse_expr(args.x, "forest", args.dim), phi if args.via == "phi" else psi
        _emit(args, x.map_basis(fn))
        return 0
    if cmd in ("signature", "branched-lift"):
        path = PiecewiseLinearPath.from_csv(args.path)
        make = signature_lift if cmd == "signature" else branched_lift_fn
        _emit(args, make(path, args.level).eval(*_window(args, path)).value)
        return 0
    if cmd == "check-rough":
        path = PiecewiseLinearPath.from_csv(args.path)
        cfg = _config(args, args.flavor)
        make = signature_lift if args.flavor == "geometric" else branched_lift_fn
        lift = make(path, args.level)
        report = check_rough_axioms(lift, cfg, _grid(path, args.grid))
        return _emit_report(args, report, report.summary())
    if cmd == "check-model":
        path = PiecewiseLinearPath.from_csv(args.path)
        cfg = _config(args, "branched")
        report = check_model(model_from_lift(branched_lift_fn(path, args.level), cfg.gamma),
                             _grid(path, args.grid))
        return _emit_report(args, report, report.summary())
    if cmd == "qgamma":
        forest = _single_forest(args, args.forest)
        print(f"{q_gamma(forest, _gamma(args)):.12g}")
        return 0
    if cmd == "convert-lift":
        if args.direction == "g2b" and _given(args, "grid"):
            raise ValueError("convert-lift --direction g2b takes no --grid")
        path = PiecewiseLinearPath.from_csv(args.path)
        s, t = _window(args, path)
        if args.direction == "g2b":
            out = geo_to_branched(signature_lift(path, args.level))
        else:
            out = branched_to_geo(branched_lift_fn(path, args.level), _grid(path, args.grid))
        _emit(args, out.eval(s, t).value)
        return 0
    if cmd == "rde":
        path = PiecewiseLinearPath.from_csv(args.path)
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
