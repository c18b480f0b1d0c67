"""Independent references the benchmark checks the program against.

Nothing here imports hopfpath: every reference is a separate, deliberately
plain computation (dense tensors, counting formulas, closed-form ODE flows).
``selftest()`` checks each one against values computed by hand; the benchmark
runs it before any measurement, and ``python3 perfbench/refs.py`` runs it alone.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# dense truncated tensors: level k is a flat list of d**k coefficients, the
# word (i1, ..., ik) over letters 1..d sits at base-d index sum (i_j - 1) d**(k-j)


def tensor_zero(d: int, level: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * d**k for k in range(level + 1)]


def tensor_mul(a: list, b: list, d: int, level: int) -> list:
    """Truncated tensor product: c_k = sum_j a_j (x) b_(k-j)."""
    out = tensor_zero(d, level)
    for k in range(level + 1):
        ck = out[k]
        for j in range(k + 1):
            aj, bk = a[j], b[k - j]
            width = d ** (k - j)
            for p, x in enumerate(aj):
                if x:
                    base = p * width
                    for q, y in enumerate(bk):
                        if y:
                            ck[base + q] += x * y
    return out


def tensor_exp_increment(v: tuple, level: int) -> list:
    """exp of a level-one element: level k is v^(x)k / k!."""
    out = [[Fraction(1)]]
    cur = [Fraction(1)]
    for k in range(1, level + 1):
        cur = [x * y / k for x in cur for y in v]
        out.append(cur)
    return out


def tensor_exp(x: list, d: int, level: int) -> list:
    """exp of a counit-free truncated tensor, by its power series."""
    out = tensor_zero(d, level)
    out[0][0] = Fraction(1)
    power = [lv[:] for lv in out]
    for n in range(1, level + 1):
        power = tensor_mul(power, x, d, level)
        for k in range(level + 1):
            for p, c in enumerate(power[k]):
                out[k][p] += c / math.factorial(n)
    return out


def tensor_log(g: list, d: int, level: int) -> list:
    """log of a truncated tensor with constant term 1."""
    u = [lv[:] for lv in g]
    u[0][0] -= 1
    out = tensor_zero(d, level)
    power = tensor_zero(d, level)
    power[0][0] = Fraction(1)
    for n in range(1, level + 1):
        power = tensor_mul(power, u, d, level)
        for k in range(level + 1):
            for p, c in enumerate(power[k]):
                out[k][p] += c * Fraction((-1) ** (n - 1), n)
    return out


def dense_signature(points: list, level: int) -> list:
    """Chen product of the segment exponentials of a piecewise-linear path."""
    d = len(points[0])
    out = tensor_zero(d, level)
    out[0][0] = Fraction(1)
    for p0, p1 in zip(points, points[1:]):
        inc = tuple(b - a for a, b in zip(p0, p1))
        out = tensor_mul(out, tensor_exp_increment(inc, level), d, level)
    return out


def tensor_to_words(x: list, d: int) -> dict:
    """Non-zero coefficients keyed by letter tuples; the empty word is ()."""
    out = {}
    for k, lv in enumerate(x):
        for p, c in enumerate(lv):
            if c:
                letters = []
                for _ in range(k):
                    p, r = divmod(p, d)
                    letters.append(r + 1)
                out[tuple(reversed(letters))] = c
    return out


def words_to_tensor(coeffs: dict, d: int, level: int) -> list:
    out = tensor_zero(d, level)
    for letters, c in coeffs.items():
        p = 0
        for i in letters:
            p = p * d + (i - 1)
        out[len(letters)][p] += c
    return out


def interpolate(times: list, values: list, t: Fraction) -> tuple:
    """Position of a piecewise-linear path at time t inside [times[0], times[-1]]."""
    for (t0, x0), (t1, x1) in zip(zip(times, values), zip(times[1:], values[1:])):
        if t0 <= t <= t1:
            lam = (t - t0) / (t1 - t0)
            return tuple(a + lam * (b - a) for a, b in zip(x0, x1))
    raise ValueError(f"time {t} outside the path")


def window_points(times: list, values: list, s: Fraction, t: Fraction) -> list:
    """Points of the path restricted to [s, t]: the ends and the knots between."""
    inner = [x for u, x in zip(times, values) if s < u < t]
    return [interpolate(times, values, s), *inner, interpolate(times, values, t)]


# ---------------------------------------------------------------------------
# level two by the Lévy-area formula


def levy_level2(points: list) -> dict:
    """S^(ij) = dX^i dX^j / 2 + A^(ij), A the Lévy area of the polygon."""
    d = len(points[0])
    x0 = points[0]
    area = {(i, j): Fraction(0) for i in range(d) for j in range(d)}
    for p0, p1 in zip(points, points[1:]):
        rel = [a - b for a, b in zip(p0, x0)]
        inc = [b - a for a, b in zip(p0, p1)]
        for i in range(d):
            for j in range(d):
                area[(i, j)] += (rel[i] * inc[j] - rel[j] * inc[i]) / 2
    total = [b - a for a, b in zip(x0, points[-1])]
    return {
        (i + 1, j + 1): total[i] * total[j] / 2 + area[(i, j)]
        for i in range(d)
        for j in range(d)
    }


# ---------------------------------------------------------------------------
# shuffles, for an independent primitivity test of log-signatures


def shuffle(u: tuple, v: tuple) -> dict:
    """Interleavings of u and v keeping both orders, with multiplicities."""
    out: dict = {}
    n = len(u) + len(v)
    for pos in itertools.combinations(range(n), len(u)):
        word, iu, iv = [], iter(u), iter(v)
        chosen = set(pos)
        for p in range(n):
            word.append(next(iu) if p in chosen else next(iv))
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    return out


def lie_defect(coeffs: dict, d: int, level: int):
    """First (u, v) with <x, u sh v> != 0 for non-empty u, v, or None.

    A tensor is primitive for the deshuffle coproduct exactly when it pairs to
    zero with every shuffle of two non-empty words.
    """
    for nu in range(1, level):
        for nv in range(1, level - nu + 1):
            for u in itertools.product(range(1, d + 1), repeat=nu):
                for v in itertools.product(range(1, d + 1), repeat=nv):
                    total = sum(
                        m * coeffs.get(w, 0) for w, m in shuffle(u, v).items()
                    )
                    if total:
                        return u, v
    return None


# ---------------------------------------------------------------------------
# counting: decorated rooted trees and forests, Witt's formula


def tree_and_forest_counts(d: int, n: int) -> tuple[list[int], list[int]]:
    """t[k]: rooted trees with k nodes labelled from d colours; f[k]: forests.

    f is the Euler transform of t, and a tree of k + 1 nodes is a root colour
    over a forest of k nodes: t[k + 1] = d f[k].
    """
    t = [0] * (n + 1)
    f = [1] + [0] * n
    for k in range(1, n + 1):
        t[k] = d * f[k - 1]
        c = [sum(m * t[m] for m in range(1, j + 1) if j % m == 0) for j in range(k + 1)]
        f[k] = sum(c[j] * f[k - j] for j in range(1, k + 1)) // k
    return t, f


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt(d: int, k: int) -> int:
    """Dimension of the degree-k part of the free Lie algebra on d letters."""
    return sum(_mobius(m) * d ** (k // m) for m in range(1, k + 1) if k % m == 0) // k


# ---------------------------------------------------------------------------
# branched lift of one linear segment; trees are (label, (child, ...)) tuples


def tree_factorial(tree: tuple) -> int:
    label, children = tree
    out = 1 + sum(tree_size(c) for c in children)
    for c in children:
        out *= tree_factorial(c)
    return out


def tree_size(tree: tuple) -> int:
    return 1 + sum(tree_size(c) for c in tree[1])


def tree_labels(tree: tuple):
    yield tree[0]
    for c in tree[1]:
        yield from tree_labels(c)


def segment_forest_coefficient(forest: list, increment: tuple) -> Fraction:
    """prod over nodes of v_label, over the product of the tree factorials."""
    out = Fraction(1)
    for tree in forest:
        for label in tree_labels(tree):
            out *= increment[label - 1]
        out /= tree_factorial(tree)
    return out


# ---------------------------------------------------------------------------
# closed-form flows of dy = f(y) sum_i dx^i, with D = sum_i (x^i_t - x^i_0)


def linear_flow(y0: float, delta: float) -> float:
    """f(y) = y."""
    return y0 * math.exp(delta)


def sine_flow(y0: float, delta: float) -> float:
    """f(y) = sin y."""
    return 2 * math.atan(math.tan(y0 / 2) * math.exp(delta))


def square_flow(y0: float, delta: float) -> float:
    """f(y) = y^2."""
    return y0 / (1 - y0 * delta)


# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def selftest() -> list[str]:
    """Check every reference against hand-computed values; returns failures."""
    F = Fraction
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got!r}, expected {want!r}")

    expect("exp increment", tensor_exp_increment((F(1), F(2)), 2),
           [[1], [1, 2], [F(1, 2), 1, 1, 2]])
    # the L-shaped path (0,0) -> (1,0) -> (1,1)
    corner = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1))]
    sig = tensor_to_words(dense_signature(corner, 3), 2)
    expect("corner signature", sig, {
        (): 1, (1,): 1, (2,): 1, (1, 1): F(1, 2), (1, 2): 1, (2, 2): F(1, 2),
        (1, 1, 1): F(1, 6), (1, 1, 2): F(1, 2), (1, 2, 2): F(1, 2), (2, 2, 2): F(1, 6),
    })
    expect("corner Levy", levy_level2(corner),
           {(1, 1): F(1, 2), (1, 2): 1, (2, 1): 0, (2, 2): F(1, 2)})
    expect("word round trip", tensor_to_words(words_to_tensor(sig, 2, 3), 2), sig)
    g = dense_signature(corner, 3)
    lg = tensor_log(g, 2, 3)
    # log of the corner: level one (1, 1), level two the area 1/2 on [1,2]
    expect("corner log level 2", lg[2], [0, F(1, 2), F(-1, 2), 0])
    expect("exp of log", tensor_exp(lg, 2, 3), g)
    expect("shuffle 1,2", shuffle((1,), (2,)), {(1, 2): 1, (2, 1): 1})
    expect("shuffle 1,1", shuffle((1,), (1,)), {(1, 1): 2})
    expect("shuffle 12,3", shuffle((1, 2), (3,)), {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1})
    expect("bracket is Lie", lie_defect({(1, 2): 1, (2, 1): -1}, 2, 2), None)
    expect("square is not Lie", lie_defect({(1, 2): 1}, 2, 2), ((1,), (2,)))
    # one colour: rooted trees 1, 1, 2, 4, 9, 20; forests of k nodes = trees of k + 1
    t1, f1 = tree_and_forest_counts(1, 6)
    expect("trees d=1", t1[1:], [1, 1, 2, 4, 9, 20])
    expect("forests d=1", f1, [1, 1, 2, 4, 9, 20, 48])
    t2, f2 = tree_and_forest_counts(2, 4)
    expect("trees d=2", t2[1:], [2, 4, 14, 52])
    expect("forests d=2", f2, [1, 2, 7, 26, 107])
    expect("witt d=2", [witt(2, k) for k in range(1, 7)], [2, 1, 2, 3, 6, 9])
    expect("witt d=3", [witt(3, k) for k in range(1, 5)], [3, 3, 8, 18])
    leaf = lambda i: (i, ())  # noqa: E731
    expect("factorial chain", tree_factorial((1, ((1, ((1, ()),)),))), 6)
    expect("factorial cherry", tree_factorial((1, (leaf(2), leaf(2)))), 3)
    expect("segment cherry", segment_forest_coefficient([(1, (leaf(2), leaf(2)))], (F(2), F(3))), 6)
    expect("segment forest", segment_forest_coefficient([leaf(1), leaf(2)], (F(2), F(3))), 6)
    for name, got, want in [
        ("linear flow", linear_flow(1.0, math.log(2)), 2.0),
        ("sine flow", sine_flow(math.pi / 2, math.log(math.sqrt(3))), 2 * math.pi / 3),
        ("sine rest", sine_flow(0.7, 0.0), 0.7),
        ("square flow", square_flow(0.5, 1.0), 1.0),
    ]:
        if not _close(got, want):
            bad.append(f"{name}: got {got!r}, expected {want!r}")
    return bad


if __name__ == "__main__":
    failures = selftest()
    for line in failures:
        print("FAIL", line)
    print("reference self-test:", "FAIL" if failures else "ok")
    raise SystemExit(1 if failures else 0)
