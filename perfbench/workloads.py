"""The three workloads: their seeded inputs, their operations and their checks.

Each operation is one or a few calls into hopfpath's public functions, timed
as a whole; spans inside it name the calls.  Each check compares an output
with a reference from ``refs`` (computed apart from the program) or with a
property the method must have, and returns a list of failures.
"""
from __future__ import annotations

import dataclasses
import importlib
import math
import random
import types
from fractions import Fraction

import refs

MODULES = ("symbols", "linalg", "hopf_core", "hopf_ck", "series", "roughpath", "model_rde")

GRID = [Fraction(i, 8) for i in range(9)]
GAMMA = Fraction(3, 10)


def load_program() -> types.SimpleNamespace:
    """Import hopfpath's modules; the set-up step every workload starts with."""
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"hopfpath.{m}") for m in MODULES}
    )


@dataclasses.dataclass
class Op:
    name: str
    call: object  # () -> output, the timed program calls
    check: object  # output -> list of failure strings


def _rng(workload: str, seed: int, stream: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _as_tuple_tree(tree) -> tuple:
    return (tree.label, tuple(_as_tuple_tree(c) for c in tree.children.trees()))


def _ladder(hp, letters: tuple):
    """The ladder tree of a word: first letter at the leaf, last at the root."""
    forest = hp.symbols.EMPTY_FOREST
    for i in letters:
        forest = hp.symbols.Tree(i, forest).as_forest()
    return forest


class Workload:
    name = ""
    why = ""  # one line for BENCHMARK.json
    warm = True  # a warm workload runs many rounds per process after a warm-up

    def __init__(self, hp, seed: int, stream: int, tracer):
        self.hp, self.tr = hp, tracer
        self.rng = _rng(self.name, seed, stream)

    def construct(self):
        """Build the instances the operations use (part of set-up)."""

    def warmup(self) -> Op | None:
        return None

    def round(self) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[str]:
        return []

    def counters(self) -> dict:
        """Per-layer counts for the whole process, read after its rounds."""
        return {}

    def lift(self, lift, span: str):
        """The lift itself, or with tracing on a copy whose evaluation is a span."""
        if not self.tr.enabled:
            return lift
        return self.hp.roughpath.RoughLift(
            lift.flavor, lift.dim, lift.level, self.tr.wrap(span, lift.eval)
        )


# ---------------------------------------------------------------------------
# lifts: exact signatures, branched lifts, log-signatures, print and parse


class Lifts(Workload):
    name = "lifts"
    why = ("exact signatures, branched lifts, log-signatures and print/parse of "
           "seeded paths: segment closed forms and truncated Chen products")
    KNOTS = {2: 24, 3: 16}
    SIG_LEVEL = {2: 4, 3: 3}
    BRANCHED_LEVEL = 3

    def _path(self, rng: random.Random, d: int):
        n = self.KNOTS[d]
        inner = sorted(rng.sample(range(1, 96), n - 2))
        times = [Fraction(0), *(Fraction(k, 96) for k in inner), Fraction(1)]
        x = [Fraction(0)] * d
        values = []
        for _ in times:
            values.append(tuple(x))
            x = [v + Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for v in x]
        return times, values

    input_pieces = terms = 0

    def warmup(self) -> Op:
        return self._op(*self._path(_rng(self.name, 0, -1), 2), record=False)

    def round(self) -> list[Op]:
        return [self._op(*self._path(self.rng, d)) for d in (2, 3)]

    def _op(self, times, values, record=True) -> Op:
        hp, tr = self.hp, self.tr
        d = len(values[0])
        level = self.SIG_LEVEL[d]
        path = hp.roughpath.PiecewiseLinearPath.from_knots(zip(times, values))
        windows = [(GRID[0], GRID[-1]), *zip(GRID, GRID[1:])]

        def call():
            sig = hp.roughpath.signature_lift(path, level)
            sigs = []
            for s, t in windows:
                with tr.span("roughpath.signature"):
                    sigs.append(sig.eval(s, t))
            br = hp.roughpath.branched_lift_fn(path, self.BRANCHED_LEVEL)
            brs = []
            for s, t in windows:
                with tr.span("roughpath.branched"):
                    brs.append(br.eval(s, t))
            with tr.span("series.log"):
                log = hp.series.log_trunc(sigs[0])
            with tr.span("linalg.format"):
                text = hp.linalg.format_lincomb(sigs[0].value)
            with tr.span("symbols.parse"):
                parsed = hp.symbols.parse_expr(text, "word", d)
            return sigs, br, brs, log, parsed

        def check(out) -> list[str]:
            sigs, br, brs, log, parsed = out
            bad = []
            for (s, t), sig, b in zip(windows, sigs, brs):
                where = f"path d={d} on [{s},{t}]"
                points = refs.window_points(times, values, s, t)
                got = {w.letters: c for w, c in sig.value}
                bad += self._check_signature(got, points, level, where)
                bad += self._check_ladders(got, b, where)
            bad += self._check_multiplicative(brs[0], d, "path on [0,1]")
            bad += self._check_segment(br, times, values)
            bad += self._check_log(log, sigs[0], d, level)
            if parsed != sigs[0].value:
                bad.append(f"print/parse round trip changed the signature of a d={d} path")
            if record:
                self.input_pieces += self._pieces(times, windows)
                self.terms += sum(len(x.value) for x in (*sigs, *brs, log))
            return bad

        return Op(f"path-d{d}", call, check)

    @staticmethod
    def _pieces(times, windows) -> int:
        """Size of an input: twice the distinct linear pieces of the path over the
        windows, one set for each of the two lifts.  Counted from the input, not
        read from the program, so it moves only when the inputs change."""
        seen = set()
        for s, t in windows:
            stops = [s, *(u for u in times if s < u < t), t]
            seen.update(zip(stops, stops[1:]))
        return 2 * len(seen)

    @staticmethod
    def _check_signature(got: dict, points, level, where) -> list[str]:
        d = len(points[0])
        total = [b - a for a, b in zip(points[0], points[-1])]
        if [got.get((i,), 0) for i in range(1, d + 1)] != total:
            return [f"level 1 is not the increment {where}"]
        for (i, j), c in refs.levy_level2(points).items():
            if got.get((i, j), 0) != c:
                return [f"level 2 ({i},{j}) differs from the Lévy-area formula {where}"]
        want = refs.tensor_to_words(refs.dense_signature(points, level), d)
        if got != want:
            return [f"signature differs from the dense Chen reference {where}"]
        return []

    def _check_ladders(self, sig_words: dict, branched, where) -> list[str]:
        for letters, c in sig_words.items():
            if len(letters) <= self.BRANCHED_LEVEL:
                if branched.coeff(_ladder(self.hp, letters)) != c:
                    return [f"ladder {letters} differs from the signature {where}"]
        return []

    def _check_multiplicative(self, branched, d, where) -> list[str]:
        pool = [f for f in self.hp.symbols.forests_up_to(d, self.BRANCHED_LEVEL) if f.grade]
        for a in pool:
            for b in pool:
                if a.grade + b.grade <= self.BRANCHED_LEVEL:
                    if branched.coeff(a.mul(b)) != branched.coeff(a) * branched.coeff(b):
                        return [f"branched lift not multiplicative on ({a}, {b}) {where}"]
        return []

    def _check_segment(self, br, times, values) -> list[str]:
        """On one linear piece the coefficient of a forest is prod v_label / forest!."""
        d = len(values[0])
        inc = tuple(b - a for a, b in zip(values[0], values[1]))
        elt = br.eval(times[0], times[1])
        for f in self.hp.symbols.forests_up_to(d, self.BRANCHED_LEVEL):
            want = refs.segment_forest_coefficient([_as_tuple_tree(t) for t in f.trees()], inc)
            if elt.coeff(f) != want:
                return [f"single-segment branched coefficient of {f} is not prod v / forest!"]
        return []

    @staticmethod
    def _check_log(log, sig, d, level) -> list[str]:
        coeffs = {w.letters: c for w, c in log.value}
        if refs.lie_defect(coeffs, d, level) is not None:
            return ["log-signature is not primitive"]
        dense = refs.words_to_tensor(coeffs, d, level)
        back = refs.tensor_to_words(refs.tensor_exp(dense, d, level), d)
        if back != {w.letters: c for w, c in sig.value}:
            return ["exp(log S) != S"]
        return []

    def counters(self) -> dict:
        return {"lifts.input_pieces": self.input_pieces, "lifts.terms": self.terms}


# ---------------------------------------------------------------------------
# checks-cold: axiom checkers, primitive bases, rough-path and model checks


def _fixed_paths(hp):
    F = Fraction
    first = [(F(i, 6), (F(i * i % 5, 3), F((-1) ** i * i, 4))) for i in range(7)]
    second = [(F(0), (F(0), F(0))), (F(1, 4), (F(1, 2), F(-1, 3))),
              (F(1, 2), (F(-1, 4), F(1))), (F(5, 8), (F(1), F(1, 2))), (F(1), (F(3, 2), F(2)))]
    return [hp.roughpath.PiecewiseLinearPath.from_knots(k) for k in (first, second)]


class ChecksCold(Workload):
    """Fixed instances, paths and grids, with check_axioms' default sampling
    seed as `hopfpath check-axioms` uses: no input depends on the run seed,
    which keeps seed-to-seed differences in work out of the spread."""

    name = "checks-cold"
    why = ("Hopf, rough-path and model checks plus primitive bases in fresh "
           "processes: coproducts, antipodes, GL products, nullspaces, cold caches")
    warm = False
    AXIOM_GRADE = 4
    INSTANCES = (("poly", 3), ("shuffle", 3), ("concat", 3), ("ck", 2), ("gl", 2))
    PRIMITIVE = (("concat", 3), ("gl", 2), ("shuffle", 3))
    MODEL_GRID = [Fraction(i, 3) for i in range(4)]

    def construct(self):
        hc, rp = self.hp.hopf_core, self.hp.roughpath
        self.instances = {name: hc.get_instance(name, d) for name, d in self.INSTANCES}
        self.paths = _fixed_paths(self.hp)
        self.configs = {fl: rp.RoughPathConfig.make(GAMMA, fl) for fl in ("geometric", "branched")}

    def round(self) -> list[Op]:
        hp, tr = self.hp, self.tr
        ops = []
        for name, _ in self.INSTANCES:
            inst = self.instances[name]

            def call(inst=inst, name=name):
                with tr.span(f"hopf_core.check_axioms.{name}"):
                    return hp.hopf_core.check_axioms(inst, self.AXIOM_GRADE)

            ops.append(Op(f"check_axioms {name}", call, self._passed))
        for name, d in self.PRIMITIVE:
            for k in range(1, self.AXIOM_GRADE + 1):
                want = self._primitive_dim(name, d, k)

                def call(inst=self.instances[name], k=k):
                    with tr.span("series.primitive_basis"):
                        return hp.series.primitive_basis(inst, k)

                def check(basis, want=want, k=k, name=name):
                    if len(basis) != want:
                        return [f"{name} has {len(basis)} primitives of grade {k}, expected {want}"]
                    return []

                ops.append(Op(f"primitive_basis {name} {k}", call, check))
        for i, path in enumerate(self.paths):
            for flavor, cfg in self.configs.items():
                def call(path=path, flavor=flavor, cfg=cfg):
                    lift = (hp.roughpath.signature_lift if flavor == "geometric"
                            else hp.roughpath.branched_lift_fn)(path, 3)
                    lift = self.lift(lift, "roughpath.check_rough.eval")
                    with tr.span("roughpath.check_rough"):
                        return hp.roughpath.check_rough_axioms(lift, cfg, GRID)

                ops.append(Op(f"check_rough path{i} {flavor}", call, self._passed))

        def call_model():
            lift = self.lift(hp.roughpath.branched_lift_fn(self.paths[0], 3),
                             "model_rde.check_model.eval")
            model = hp.model_rde.model_from_lift(lift, GAMMA)
            with tr.span("model_rde.check_model"):
                return hp.model_rde.check_model(model, self.MODEL_GRID)

        ops.append(Op("check_model", call_model, self._passed))
        return ops

    def _primitive_dim(self, name, d, k) -> int:
        if name == "concat":
            return refs.witt(d, k)  # primitives of the tensor algebra: the free Lie algebra
        if name == "gl":
            trees, _ = refs.tree_and_forest_counts(d, k)
            return trees[k]  # primitives of Grossman-Larson: single trees
        return d if k == 1 else 0  # deconcatenation: only letters are primitive

    @staticmethod
    def _passed(report) -> list[str]:
        if report.passed:
            return []
        return [e.law + ": " + e.witness for e in report.entries if not e.ok][:1]

    def probes(self) -> list[str]:
        """A checker that stops checking must fail the run."""
        hp = self.hp
        bad = []
        base = hp.hopf_core.get_instance("concat", 2)

        def skewed(u, v, product=base.product_basis):
            out = product(u, v)
            return out.scale(2) if u.grade and v.grade else out

        broken = dataclasses.replace(base, product_basis=skewed, _memo={})
        if hp.hopf_core.check_axioms(broken, 3, samples=30).passed:
            bad.append("probe: check_axioms passed an instance with a perturbed product")
        lift = hp.roughpath.signature_lift(self.paths[1], 3)
        w12 = hp.symbols.Word((1, 2))
        one = hp.linalg.LinComb.term(w12)

        def perturbed(s, t):
            elt = lift.eval(s, t)
            if s == t:
                return elt
            return hp.series.TruncatedElement(elt.value + one, elt.level, elt.algebra)

        fake = hp.roughpath.RoughLift("geometric", 2, 3, perturbed)
        if hp.roughpath.check_rough_axioms(fake, self.configs["geometric"], GRID[::4]).passed:
            bad.append("probe: check_rough_axioms passed a lift with a perturbed level-2 term")
        return bad

    def counters(self) -> dict:
        hk, sy = self.hp.hopf_ck, self.hp.symbols
        ck, gl, fo = hk.ck_coproduct.cache_info(), hk.gl_product.cache_info(), sy.forests.cache_info()
        return {
            "hopf_ck.ck_coproduct.hits": ck.hits,
            "hopf_ck.ck_coproduct.misses": ck.misses,
            "hopf_ck.gl_product.hits": gl.hits,
            "hopf_ck.gl_product.misses": gl.misses,
            "symbols.forests.misses": fo.misses,
        }


# ---------------------------------------------------------------------------
# rde: truncated Picard solves against closed-form flows


class Rde(Workload):
    name = "rde"
    why = ("truncated Picard solves with closed-form answers: step coefficients and "
           "big-integer Fraction arithmetic on huge rationals")
    LEVEL = 4
    KNOTS = 16
    # relative error allowed against the closed form, at every sample
    TOLERANCE = {"line-1/100": 1e-9, "line-1/200": 1e-10, "linear-2d": 1e-4,
                 "sin-2d": 1e-4, "square": 1e-6}
    # observed order from halving h must be at least LEVEL - 1/2 (exact order LEVEL)
    MIN_HALVING_RATIO = 2 ** (LEVEL - 0.5)

    def construct(self):
        md = self.hp.model_rde
        self.line = [(Fraction(0), (Fraction(0),)), (Fraction(1), (Fraction(1),))]
        self.fields = {spec: {d: md.VectorField.from_spec(spec, d) for d in (1, 2)}
                       for spec in ("linear", "sin", "poly:0,0,1")}
        self.steps = self.float_steps = self.max_bits = 0
        self.line_errors: dict = {}

    def _path(self) -> list:
        F = Fraction
        x = [F(0), F(0)]
        knots = []
        for k in range(self.KNOTS + 1):
            knots.append((F(k, self.KNOTS), tuple(x)))
            x = [v + F(self.rng.randint(-3, 3), 16) for v in x]
        return knots

    def warmup(self) -> Op:
        return self._solve("line-1/100", self.line, "linear", Fraction(1), Fraction(1, 100),
                           refs.linear_flow, record=False)

    def round(self) -> list[Op]:
        F = Fraction
        return [
            self._solve("line-1/100", self.line, "linear", F(1), F(1, 100), refs.linear_flow),
            self._solve("line-1/200", self.line, "linear", F(1), F(1, 200), refs.linear_flow),
            self._solve("linear-2d", self._path(), "linear", F(1), F(1, 50), refs.linear_flow),
            self._solve("sin-2d", self._path(), "sin", 0.5, F(1, 100), refs.sine_flow),
            self._solve("square", self.line, "poly:0,0,1", F(1, 2), F(1, 100), refs.square_flow),
        ]

    def _solve(self, name, knots, spec, y0, h, flow, record=True) -> Op:
        hp, tr = self.hp, self.tr
        path = hp.roughpath.PiecewiseLinearPath.from_knots(knots)
        vf = self.fields[spec][path.dim]
        times, values = [t for t, _ in knots], [x for _, x in knots]

        def call():
            lift = None
            if tr.enabled:
                lift = self.lift(hp.roughpath.branched_lift_fn(path, self.LEVEL),
                                 "roughpath.rde_eval")
            with tr.span("model_rde.picard_solve"):
                return hp.model_rde.picard_solve(path, vf, y0, GAMMA, self.LEVEL, h, lift=lift)

        def check(samples) -> list[str]:
            if record:
                self._record(samples)
            x0 = sum(values[0])
            worst = 0.0
            for t, y in samples:
                want = flow(float(y0), float(sum(refs.interpolate(times, values, t)) - x0))
                worst = max(worst, abs(float(y) - want) / abs(want))
            if samples[-1][0] != times[-1]:
                return [f"{name}: solve stopped at t={samples[-1][0]}"]
            if not worst <= self.TOLERANCE[name]:
                return [f"{name}: relative error {worst:.3g} above {self.TOLERANCE[name]:.0e}"]
            if name.startswith("line-"):
                if not all(isinstance(y, Fraction) for _, y in samples):
                    return [f"{name}: exact linear solve left exact arithmetic"]
                self.line_errors[name] = abs(float(samples[-1][1]) - math.e) / math.e
                if name == "line-1/200" and "line-1/100" in self.line_errors:
                    ratio = self.line_errors["line-1/100"] / max(self.line_errors[name], 1e-300)
                    if ratio < self.MIN_HALVING_RATIO:
                        return [f"halving h cut the error only {ratio:.3g}-fold"]
            return []

        return Op(name, call, check)

    def _record(self, samples):
        self.steps += len(samples) - 1
        for _, y in samples[1:]:
            if isinstance(y, float):
                self.float_steps += 1
            else:
                bits = y.numerator.bit_length() + y.denominator.bit_length()
                self.max_bits = max(self.max_bits, bits)

    def counters(self) -> dict:
        return {"model_rde.steps": self.steps, "model_rde.float_steps": self.float_steps,
                "model_rde.max_state_bits": self.max_bits}


WORKLOADS = {w.name: w for w in (Lifts, ChecksCold, Rde)}
