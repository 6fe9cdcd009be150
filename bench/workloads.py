"""The benchmark workloads: seeded request generation, execution and checks.

Generation never touches symgraph.  A request is plain data (ints,
Fractions, strings, syllable tuples) derived from the seed alone, so the
package receives only generated inputs and every run of a seed does the same
work.  ``run`` hands the data to the package and is the only timed part;
``check`` verifies the outcome afterwards and returns a failure description,
or None when the output is correct.

Each workload has a fixed list of request *kinds* (a configuration such as
``(k, r, support radius, steps, observe radius)``).  A *round* holds every
kind once, with fresh values, in a seeded order.  Because the composition of
a round never depends on the seed, two seeds differ only in values and
order, which keeps the cost of a round steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Request", "CliOutcome", "WORKLOADS", "SUITES", "run_cli", "defect_census"]


@dataclass(frozen=True)
class Request:
    kind: tuple
    data: tuple


# -- generator-side helpers (no symgraph) -----------------------------------------


def ball_syllables(k: int, r: int, radius: int) -> list[tuple]:
    """Every reduced word of length <= radius, as syllable tuples."""
    out, frontier = [()], [()]
    for _ in range(radius):
        grown = []
        for word in frontier:
            last = word[-1][0] if word else -1
            grown += [word + ((g, e),) for g in range(r) if g != last for e in range(1, k)]
        out += grown
        frontier = grown
    return out


def word_text(syllables: tuple) -> str:
    return ".".join(f"a{g}^{e}" for g, e in syllables) or "e"


def _random_word(rng: random.Random, k: int, r: int, length: int) -> tuple:
    word, last = [], -1
    for _ in range(length):
        g = rng.choice([g for g in range(r) if g != last])
        word.append((g, rng.randrange(1, k)))
        last = g
    return tuple(word)


def _rounds(name: str, seed: int, count: int, kinds: list, make) -> list[list[Request]]:
    rounds = []
    for index in range(count):
        rng = random.Random(f"{name}:{seed}:{index}")
        batch = [Request(kind, make(kind, rng, index)) for kind in kinds]
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


# -- wave_exact ----------------------------------------------------------------------


class WaveExact:
    """Exact shifted-wave solves: the stepper against the closed form, with ==.

    The pairs cover k < r, k = r and k > r; the closed form dispatches on
    that regime.  Time goes to vertex enumeration, distance() and ring
    arithmetic, with no quadrature.
    """

    name = "wave_exact"
    pairs = ((2, 3), (2, 4), (3, 4), (3, 3), (3, 2), (4, 3))
    kinds = [
        (k, r, radius, steps, observe)
        for k, r in pairs
        for radius in (1, 2)
        for steps in (3, 4)
        for observe in (1, 2)
    ]

    def generate(self, seed: int, count: int) -> list[list[Request]]:
        def make(kind, rng, _):
            k, r, radius = kind[:3]
            words = ball_syllables(k, r, radius)
            initial = tuple(rng.randint(-3, 3) for _ in words)
            velocity = tuple(rng.randint(-3, 3) for _ in words)
            return (tuple(words), initial, velocity)

        return _rounds(self.name, seed, count, self.kinds, make)

    def run(self, sg, req: Request):
        k, r, _, steps, observe = req.kind
        words, initial, velocity = req.data
        params = sg.GraphParams(k, r)
        points = [sg.ReducedWord(params, syl) for syl in words]
        data = sg.CauchyData(
            sg.VertexFun.of(params, dict(zip(points, initial))),
            sg.VertexFun.of(params, dict(zip(points, velocity))),
        )
        field = sg.wave_direct(params, data, steps, observe_radius=observe)
        checked, mismatch = 0, None
        for n in range(-steps, steps + 1):
            for x in sg.ball(params, observe):
                checked += 1
                closed = sg.wave_closed_at(params, data, x, n)
                if mismatch is None and closed != field.at(x, n):
                    mismatch = (str(x), n, str(closed), str(field.at(x, n)))
        return checked, mismatch

    def check(self, sg, req: Request, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__}: {outcome}"
        checked, mismatch = outcome
        if mismatch is not None:
            return "closed form != stepper at x=%s n=%d: %s vs %s" % mismatch
        if checked == 0:
            return "no point observed"
        return None


# -- radial_exact ----------------------------------------------------------------------


class RadialExact:
    """Exact radial chains: Abel and dual Abel transforms and their inverses.

    Values are a + b*sqrt(q) with b != 0 on pairs whose q is not a perfect
    square, so every step carries both ring components.  No vertex is
    enumerated; time goes to transforms and ring arithmetic on large
    q-power rationals.
    """

    name = "radial_exact"
    pairs = ((2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3))
    kinds = [(k, r, size) for k, r in pairs for size in (10, 15, 20, 25, 30, 35, 40)]

    def generate(self, seed: int, count: int) -> list[list[Request]]:
        def make(kind, rng, _):
            return tuple(
                (rng.randint(-9, 9), rng.randint(1, 9),
                 rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(kind[2] + 1)
            )

        return _rounds(self.name, seed, count, self.kinds, make)

    def run(self, sg, req: Request):
        k, r, _ = req.kind
        params = sg.GraphParams(k, r)
        q = params.q
        values = [sg.AlgebraicValue(Fraction(an, ad), Fraction(bn, bd), q)
                  for an, ad, bn, bd in req.data]
        f = sg.RadialSeq.of(params, values)
        g = sg.abel(f)
        broken = []
        if sg.abel_inv(g).values != f.values:
            broken.append("abel_inv(abel f) != f")
        if sg.abel_inv_rearranged(g).values != f.values:
            broken.append("abel_inv_rearranged(abel f) != f")
        dual = sg.dual_abel(g)
        if sg.dual_abel_via_counts(g).values != dual.values:
            broken.append("dual_abel != dual_abel_via_counts")
        if sg.dual_abel_inv(dual).values != g.values:
            broken.append("dual_abel_inv(dual_abel g) != g")
        if sg.dual_abel_inv_recurrence(dual).values != g.values:
            broken.append("dual_abel_inv_recurrence(dual_abel g) != g")
        return broken

    def check(self, sg, req: Request, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__}: {outcome}"
        return "; ".join(outcome) or None


# -- cli_mix ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    code: object
    stdout: str
    stderr: str


def run_cli(main, argv: list[str]) -> CliOutcome:
    """Call ``symgraph.cli.main`` in-process with captured streams.

    An exception escaping ``main`` propagates: the caller counts it as a
    failure (on the command line it would be a traceback).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliOutcome(code, out.getvalue(), err.getvalue())


_RUNTIME_RE = re.compile(r'"runtime_ms": [-+0-9.eE]+')


def deterministic_bytes(text: str) -> int:
    """Output size without the wall-time field, the one non-deterministic part."""
    return len(_RUNTIME_RE.sub('"runtime_ms": ', text).encode())


def _strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _value_text(rng: random.Random, q: int) -> tuple[Fraction, Fraction, str]:
    """A ring value and its README text form.

    Bare sqrt terms get one-digit coefficients: multi-digit ones hit the
    known ``parse_value`` defect, which ``defect_census`` probes instead.
    """
    a = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
    form = rng.randrange(3)
    if form == 0:
        return a, Fraction(0), str(a)
    c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) * rng.choice((1, -1))
    if form == 1:
        head = "-" if c < 0 else ""
        coeff = "" if abs(c) == 1 else f"{abs(c)}*"
        return Fraction(0), c, f"{head}{coeff}sqrt({q})"
    sign = "+" if c > 0 else "-"
    return a, c, f"{a}{sign}{abs(c)}*sqrt({q})"


def _sequence(rng: random.Random, q: int, low: int, high: int):
    values = [_value_text(rng, q) for _ in range(rng.randint(low, high))]
    return tuple((a, c) for a, c, _ in values), ",".join(text for _, _, text in values)


def _vertex_values(rng: random.Random, k: int, r: int, q: int, count: int):
    pool = ball_syllables(k, r, 1)
    chosen = rng.sample(pool, count)
    values = [_value_text(rng, q) for _ in chosen]
    data = tuple((syl, a, c) for syl, (a, c, _) in zip(chosen, values))
    text = ";".join(f"{word_text(syl)}:{t}" for syl, (_, _, t) in zip(chosen, values))
    return data, text


_COMMANDS = ("info", "table-b", "abel", "abel-inv", "dual", "dual-inv", "spherical",
             "transform", "plancherel", "helgason", "invert-radial", "wave")
# Sequence lengths per command.  plancherel stays at the README's radius 1:
# larger norms reach the absolute-tolerance QuadratureError (a known defect).
_RADIAL_LENGTHS = {"abel": (2, 4), "dual-inv": (1, 4), "plancherel": (2, 2), "transform": (2, 2)}
SUITES = ("group", "boundary", "abel", "dual", "spectral", "wave")
_USAGE = (
    ("abel", "--k", "3", "--r", "4", "--radial=abc"),
    ("info", "--k", "1", "--r", "4"),
    ("table", "delta", "--k", "3", "--r", "4", "--nmax", "40"),
)


class CliMix:
    """The README commands in-process, interleaved with ``verify`` on the grid.

    Every README command runs at three (k, r) pairs with generated inputs
    at README scale; ``verify --suite S --k K --r R`` runs over the 3x3 grid
    for every suite; three malformed command lines check the exit-2 path.
    """

    name = "cli_mix"
    pairs = ((2, 3), (3, 4), (4, 3))
    kinds = (
        [(cmd, k, r) for k, r in pairs for cmd in _COMMANDS]
        + [(cmd, k, r) for k, r in pairs if k <= r for cmd in ("ks-check", "invert-values")]
        + [("verify", suite, k, r) for suite in SUITES for k in (2, 3, 4) for r in (2, 3, 4)]
        + [("usage", index) for index in range(len(_USAGE))]
    )

    def generate(self, seed: int, count: int) -> list[list[Request]]:
        return _rounds(self.name, seed, count, self.kinds, self._make)

    @staticmethod
    def _make(kind, rng: random.Random, round_index: int) -> tuple:
        """(argv, spec): the command line and what its check needs."""
        cmd = kind[0]
        if cmd == "usage":
            return list(_USAGE[kind[1]]), None
        if cmd == "verify":
            # A suite's fixture sizes, and so its cost, follow its own --seed
            # (verify --suite abel at (4,4) varies 3x with it).  Cycling four
            # fixed fixture seeds over the rounds gives every run, whatever
            # its seed, the same mix of fixtures.
            _, suite, k, r = kind
            argv = ["verify", "--suite", suite, "--k", str(k), "--r", str(r),
                    "--seed", str(round_index % 4)]
            return argv, None
        _, k, r = kind
        q = (k - 1) * (r - 1)
        base = ["--k", str(k), "--r", str(r)]
        if cmd == "info":
            return ["info", *base], None
        if cmd == "table-b":
            return ["table", "b", *base, "--nmax", "4", "--hmax", "4"], None
        if cmd in _RADIAL_LENGTHS:
            spec, text = _sequence(rng, q, *_RADIAL_LENGTHS[cmd])
            extra = ["--grid", "33"] if cmd == "transform" else []
            return [cmd, *base, f"--radial={text}", *extra], spec
        if cmd in ("abel-inv", "dual"):
            spec, text = _sequence(rng, q, 2, 4)
            extra = ["--nmax", "4"] if cmd == "dual" else []
            return [cmd, *base, f"--even={text}", *extra], spec
        if cmd == "spherical":
            lam = f"{rng.uniform(0.05, 0.6):.3f}"
            argv = ["spherical", *base, "--lambda", lam, "--nmax", "6", "--oracle-depth", "4"]
            return argv, float(lam)
        if cmd == "helgason":
            data, text = _vertex_values(rng, k, r, q, rng.randint(2, 3))
            lam = f"{rng.uniform(0.05, 0.6):.3f}"
            ray = _random_word(rng, k, r, 2)
            argv = ["helgason", *base, f"--values={text}", "--lambda", lam, "--ray", word_text(ray)]
            return argv, (data, float(lam), ray)
        if cmd == "invert-radial":
            spec, text = _sequence(rng, q, 4, 4)
            at = _random_word(rng, k, r, rng.randint(0, 3))
            return ["invert", *base, f"--radial={text}", "--at", word_text(at)], (spec, at)
        if cmd == "invert-values":
            data, text = _vertex_values(rng, k, r, q, 2)
            at = _random_word(rng, k, r, rng.randint(0, 1))
            return ["invert", *base, f"--values={text}", "--at", word_text(at)], (data, at)
        if cmd == "ks-check":
            return ["ks-check", *base, "--trials", "100", "--seed", str(rng.randrange(1000))], None
        # wave: two data points each (so support radius 1) and a point at
        # distance 1, which fixes the stepper's light cone and so its cost
        initial, f_text = _vertex_values(rng, k, r, q, 2)
        velocity, g_text = _vertex_values(rng, k, r, q, 2)
        at, n = _random_word(rng, k, r, 1), rng.randint(-3, 3)
        argv = ["wave", *base, f"--f={f_text}", f"--g={g_text}", "--steps", "3",
                "--method", "both", "--at", f"{word_text(at)},{n}"]
        return argv, (initial, velocity, at, n)

    def run(self, sg, req: Request) -> CliOutcome:
        return run_cli(sg.cli.main, req.data[0])

    def check(self, sg, req: Request, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__} escaped main: {outcome}"
        cmd = req.kind[0]
        if cmd == "usage":
            if outcome.code != 2 or outcome.stdout or "Traceback" in outcome.stderr:
                return f"usage error gave exit {outcome.code!r}, stdout {outcome.stdout[:80]!r}"
            return None
        if outcome.code != 0:
            return f"exit {outcome.code!r}, stderr {outcome.stderr[:200]!r}"
        try:
            doc = _strict_json(outcome.stdout)
            return _check_document(sg, req, doc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"


# -- cli_mix references ----------------------------------------------------------------


def _close(got: complex, want: complex, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _number(rows: dict, key: str) -> complex:
    if key in rows:
        return rows[key]["float"]
    return complex(rows[f"{key}.re"]["float"], rows[f"{key}.im"]["float"])


def _expect_exact(rows: dict, key: str, value) -> None:
    row = rows[key]
    if row["exact"] != str(value):
        raise ValueError(f"{key}: exact {row['exact']!r}, expected {str(value)!r}")
    if not _close(row["float"], float(value)):
        raise ValueError(f"{key}: float {row['float']!r}, expected {float(value)!r}")


def _expect_close(rows: dict, key: str, value, rel: float = 1e-9) -> None:
    got = _number(rows, key)
    if not _close(got, complex(value), rel):
        raise ValueError(f"{key}: {got!r}, expected {complex(value)!r}")


def _expect_sequence(rows: dict, prefix: str, values) -> None:
    if len(rows) != len(values):
        raise ValueError(f"{len(rows)} rows, expected {len(values)}")
    for index, value in enumerate(values):
        _expect_exact(rows, f"{prefix}[{index}]", value)


def _check_document(sg, req: Request, doc: dict) -> str | None:
    cmd = req.kind[0]
    argv, spec = req.data
    rows = {row["key"]: row for row in doc["outputs"]}
    diagnostics = doc["diagnostics"]
    if cmd == "verify":
        if not rows or any(row["float"] != 1.0 for row in rows.values()):
            return f"verify failed: {diagnostics.get('witness')}"
        return None
    _, k, r = req.kind
    params = sg.GraphParams(k, r)
    q = params.q

    def ring(a, c):
        return sg.AlgebraicValue(a, c, q)

    def radial(values):
        return sg.RadialSeq.of(params, [ring(a, c) for a, c in values])

    def even(values):
        return sg.EvenSeq.of(params, [ring(a, c) for a, c in values])

    def vertex_fun(data):
        return sg.VertexFun.of(params, {sg.ReducedWord(params, s): ring(a, c) for s, a, c in data})

    if cmd == "info":
        for key, value in (("q", q), ("sigma", params.sigma), ("degree", params.degree),
                           ("alpha", params.alpha), ("beta", params.beta),
                           ("spectral_gap", params.spectral_gap)):
            _expect_exact(rows, key, value)
        if k > r:
            _expect_exact(rows, "gamma_atom", Fraction(1, 1 - k))
    elif cmd == "table-b":
        if len(rows) != 5 * 9:
            raise ValueError(f"{len(rows)} rows, expected 45")
        for n in range(5):
            for h in range(-4, 5):
                _expect_exact(rows, f"b[{n},{h}]", sg.sphere_horocycle_count(params, n, h))
    elif cmd == "abel":
        _expect_sequence(rows, "A", sg.abel(radial(spec)).values)
    elif cmd == "abel-inv":
        _expect_sequence(rows, "f", sg.abel_inv(even(spec)).values)
    elif cmd == "dual":
        _expect_sequence(rows, "dual", sg.dual_abel(even(spec), n_max=4).values)
    elif cmd == "dual-inv":
        _expect_sequence(rows, "g", sg.dual_abel_inv(radial(spec)).values)
    elif cmd == "spherical":
        table = sg.spherical_phi(params, sg.gamma_of(params, spec), 6)
        for n in range(7):
            _expect_close(rows, f"phi[{n}]", float(table[n]))
        for n in range(4):
            # the boundary-integral oracle must agree with the recurrence
            _expect_close(rows, f"oracle[{n}]", float(table[n]), rel=1e-10)
    elif cmd == "transform":
        f = radial(spec)
        half = params.tau / 2.0
        for j in range(33):
            _expect_close(rows, f"H[{j}]", complex(sg.spherical_transform(f, half * j / 32)))
    elif cmd == "plancherel":
        direct = radial(spec).norm_sq()
        _expect_exact(rows, "norm_sq_direct", direct)
        _expect_close(rows, "norm_sq_spectral", float(direct), rel=1e-6)
        if diagnostics["mismatch"] > 1e-6 * max(1.0, abs(float(direct))):
            raise ValueError(f"plancherel mismatch {diagnostics['mismatch']}")
    elif cmd == "helgason":
        data, lam, ray = spec
        ray = sg.BoundaryRay(sg.ReducedWord(params, ray))
        _expect_close(rows, "fhat", sg.helgason_transform(vertex_fun(data), lam, ray))
    elif cmd in ("invert-radial", "invert-values"):
        data, at = spec
        x = sg.ReducedWord(params, at)
        direct = radial(data).value(len(x)) if cmd == "invert-radial" else vertex_fun(data).value(x)
        _expect_exact(rows, "direct", direct)
        _expect_close(rows, "recovered", float(direct), rel=1e-6)
        if diagnostics["mismatch"] > 1e-6 * max(1.0, abs(float(direct))):
            raise ValueError(f"inversion mismatch {diagnostics['mismatch']}")
    elif cmd == "ks-check":
        for name in ("core", "young", "holder"):
            if not rows[f"worst_{name}_ratio"]["float"] <= 1.0 + 1e-12:
                raise ValueError(f"{name} ratio above 1")
    elif cmd == "wave":
        initial, velocity, at, n = spec
        data = sg.CauchyData(vertex_fun(initial), vertex_fun(velocity))
        x = sg.ReducedWord(params, at)
        _expect_exact(rows, f"u[{n}][{x}]", sg.wave_closed_at(params, data, x, n))
        if diagnostics["max_discrepancy"] != 0.0:
            raise ValueError(f"closed vs direct discrepancy {diagnostics['max_discrepancy']}")
    return None


# -- known defects ------------------------------------------------------------------------


def defect_census(sg, seed: int) -> dict:
    """Probe each known defect once and report whether it still shows.

    These inputs are kept out of the timed mix, where every request must
    succeed; each probe carries the README-correct outcome it is checked
    against and, while the defect stands, the witness.
    """
    rng = random.Random(f"census:{seed}")
    expected = sg.AlgebraicValue(0, Fraction(1, rng.randint(11, 19)), 6)
    bare = str(expected)  # the form the CLI itself prints, e.g. 1/13*sqrt(6)
    radius8 = [str(rng.randint(1, 3)) for _ in range(9)]
    probes = {
        "parse_value-bare-sqrt": ["abel", "--k", "3", "--r", "4", f"--radial={bare}"],
        "plancherel-radius-8": ["plancherel", "--k", "3", "--r", "4", f"--radial={','.join(radius8)}"],
        "usage-zero-denominator": ["abel", "--k", "3", "--r", "4", "--radial=1/0"],
    }
    report = {}
    for name, argv in probes.items():
        try:
            outcome = run_cli(sg.cli.main, argv)
        except Exception as exc:  # a traceback on the command line
            report[name] = {"argv": argv, "fixed": False,
                            "witness": f"{type(exc).__name__}: {exc}"}
            continue
        if name == "usage-zero-denominator":
            fixed = outcome.code == 2 and "Traceback" not in outcome.stderr
            witness = f"exit {outcome.code!r}"
        elif outcome.code != 0:
            fixed, witness = False, f"exit {outcome.code!r}: {outcome.stderr[:200]}"
        else:
            doc = _strict_json(outcome.stdout)
            rows = {row["key"]: row for row in doc["outputs"]}
            if name == "parse_value-bare-sqrt":
                got = rows["A[0]"]["exact"]
                fixed, witness = got == str(expected), f"A[0] = {got}, expected {expected}"
            else:
                mismatch = doc["diagnostics"]["mismatch"]
                direct = rows["norm_sq_direct"]["float"]
                fixed = mismatch <= 1e-6 * max(1.0, abs(direct))
                witness = f"mismatch {mismatch} at norm {direct}"
        report[name] = {"argv": argv, "fixed": fixed, "witness": witness}
    return report


WORKLOADS = {w.name: w for w in (WaveExact(), RadialExact(), CliMix())}
