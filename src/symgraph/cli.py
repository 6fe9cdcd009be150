"""Command-line surface: every transform, tables, and the verification suites.

Output is machine readable: a JSON object {command, params, inputs, outputs,
diagnostics} where each output row carries the key, the exact ring value as
text when one exists, and a float.  CSV emits the same rows, quoting a field
that holds a comma.  Exit codes: 0 pass, 1 failed verification/inequality or
a quadrature that did not reach --tol, 2 usage error (a request past a work
bound, checked before the work; a value outside the float range or an exact
value whose text would pass the interpreter's int-to-str digit limit, both
found when the value is printed; an --out that cannot be written and a lone
--k or --r among them).

Every handler takes the graph (``None`` for ``verify`` over the default grid)
and the parsed arguments, and returns (inputs, outputs, diagnostics, code).

Outputs are deterministic given the flags and seed; the one exception is
diagnostics.runtime_ms, which reports wall time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

from .algebraic import AlgebraicValue, parse_value, sqrt_q
from .boundary import BoundaryRay
from .checks import grid_params, run_suite
from .spectral import (
    QuadratureError,
    VertexFun,
    _ks_trial,
    _phi_oracles,
    _radial_gather,
    check_depth,
    gamma_atom,
    helgason_transform,
    invert_helgason,
    invert_spherical,
    plancherel_density,
    plancherel_norm,
    spherical_phi,
    spherical_transform,
    gamma_of,
)
from .transforms import (
    EvenSeq,
    RadialSeq,
    abel,
    abel_inv,
    dual_abel,
    dual_abel_inv,
)
from .wave import CauchyData, _check_closed_time, check_window, wave_closed_at, wave_direct
from .words import GraphParams, ball, ball_size, parse_word, sphere

__all__ = ["main"]


def _rows(key: str, value) -> list[dict]:
    if isinstance(value, (AlgebraicValue, int, Fraction)):
        try:
            text = str(value)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ValueError("an exact output would print an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        return [{"key": key, "exact": text, "float": float(value)}]
    if isinstance(value, complex):
        if value.imag == 0.0:
            return [{"key": key, "exact": None, "float": value.real}]
        return [
            {"key": f"{key}.re", "exact": None, "float": value.real},
            {"key": f"{key}.im", "exact": None, "float": value.imag},
        ]
    if value is None:
        return [{"key": key, "exact": None, "float": None}]
    return [{"key": key, "exact": None, "float": float(value)}]


def _emit(params: GraphParams | None, args, inputs: dict, outputs: list[dict],
          diagnostics: dict, started: float) -> str:
    if args.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("key", "exact", "float"))
        writer.writerows((row["key"], row["exact"], row["float"]) for row in outputs)
        return buffer.getvalue()
    diagnostics = dict(diagnostics)
    diagnostics["runtime_ms"] = round(1000.0 * (time.perf_counter() - started), 3)
    payload = {
        "command": args.command,
        "params": {"k": params.k, "r": params.r, "q": params.q} if params else {},
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    return json.dumps(payload, sort_keys=True, default=str, allow_nan=False) + "\n"


def _parse_seq(params: GraphParams, text: str) -> list[AlgebraicValue]:
    return [parse_value(part.strip(), params.q) for part in text.split(",")]


def _parse_vertex_fun(params: GraphParams, text: str) -> VertexFun:
    data = {}
    if text.strip():
        for item in text.split(";"):
            word_text, _, value_text = item.partition(":")
            if not value_text:
                raise ValueError(f"expected 'word:value', got {item!r}")
            word = parse_word(params, word_text.strip())
            if word in data:
                raise ValueError(f"the word {word} is given twice")
            data[word] = parse_value(value_text.strip(), params.q)
    return VertexFun.of(params, data)


def _phi_rows(params: GraphParams, lam: float, nmax: int) -> tuple[list, list[dict]]:
    """The table phi[0..nmax] of the spherical function at lam, and its rows."""
    table = spherical_phi(params, gamma_of(params, lam), nmax)
    return table, [row for n, value in enumerate(table) for row in _rows(f"phi[{n}]", float(value))]


def _on_lambda_grid(params: GraphParams, grid: int, key: str, value) -> list[dict]:
    """Rows key[j] of value(lam) on grid points over [0, tau/2]; one point is 0."""
    half = params.tau / 2.0
    return [row for j in range(grid)
            for row in _rows(f"{key}[{j}]", value(half * j / (grid - 1) if grid > 1 else 0.0))]


# -- command handlers -------------------------------------------------------------

# Work bounds of the commands whose cost is linear in one flag: refused with
# exit 2 before any work, like the stepper's window and the cylinder walks.
_MAX_PHI_TERMS = 100_000  # spherical --nmax: one float and one output row per term
# ks-check: --trials times the |ball(1)| * |ball(2)| products of a trial, 513 at
# (3, 4).  A request takes those products once, for its gather index, and each
# trial then sums as many terms.  Run times on a 2-vCPU x86-64 machine, medians
# of 5 (in-process, start-up not counted): 25000 trials at (2, 3), the slowest
# request admitted, 1.5 s, where the fixed cost of a trial weighs most; 1949 at
# (3, 4) 0.3 s; one at (10, 10), whose index takes 91 * 7381 products, 0.6 s.
_MAX_KS_PRODUCTS = 1_000_000
# verify --k --r: every suite walks at most the ball of radius 4, 9841 words at
# (4, 4), the largest point of the default grid; (10, 10) took minutes.  The
# slowest admitted request, --suite all at (2, 12) (17569 words), runs in about
# 0.25 s as a subprocess on a 2-vCPU x86-64 machine, most of it start-up.
_MAX_VERIFY_BALL = 20_000


def cmd_info(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    deg = params.degree
    outputs = []
    outputs += _rows("q", params.q)
    outputs += _rows("sigma", params.sigma)
    outputs += _rows("degree", deg)
    outputs += _rows("alpha", params.alpha)
    if params.q >= 2:
        gamma0 = (sqrt_q(params.q) * 2 + params.sigma) * Fraction(1, deg)
        lo = (params.sigma - sqrt_q(params.q) * 2) * Fraction(1, deg)
        outputs += _rows("tau", params.tau)
        outputs += _rows("beta", params.beta)
        outputs += _rows("spectral_gap", params.spectral_gap)
        outputs += _rows("gamma0", gamma0)
        outputs += _rows("segment_lo", lo)
        outputs += _rows("segment_hi", gamma0)
    else:
        for key in ("tau", "beta", "spectral_gap", "gamma0", "segment_lo", "segment_hi"):
            outputs += _rows(key, None)
    if params.k > params.r:
        outputs += _rows("gamma_atom", gamma_atom(params))
        outputs += _rows("atom_mass", Fraction(params.k - params.r, params.k))
    return {}, outputs, {}, 0


def cmd_table(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    outputs = []
    if args.table == "delta":
        for n in range(args.nmax + 1):
            outputs += _rows(f"delta[{n}]", params.delta(n))
    elif args.table == "b":
        from .boundary import _sphere_horocycle_row

        for n in range(args.nmax + 1):
            row, w = _sphere_horocycle_row(params, n, args.hmax), min(n, args.hmax)
            for h in range(-args.hmax, args.hmax + 1):
                outputs += _rows(f"b[{n},{h}]", row[w + h] if abs(h) <= w else 0)
    elif args.table == "phi":
        outputs += _phi_rows(params, args.lam, args.nmax)[1]
    else:  # c2
        outputs += _on_lambda_grid(params, args.grid, "density",
                                   lambda lam: plancherel_density(params, lam))
    inputs = {"table": args.table, "nmax": args.nmax, "hmax": args.hmax,
              "grid": args.grid, "lambda": args.lam}
    return inputs, outputs, {}, 0


def _radial(params: GraphParams, text: str, seq_type, transform, key: str,
            n_max: int | None = None) -> list:
    """Rows key[n] of a radial transform applied to the parsed sequence."""
    seq = seq_type.of(params, _parse_seq(params, text))
    result = transform(seq) if n_max is None else transform(seq, n_max=n_max)
    return [row for n, value in enumerate(result.values) for row in _rows(f"{key}[{n}]", value)]


def cmd_abel(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    outputs = _radial(params, args.radial, RadialSeq, abel, "A")
    return {"radial": args.radial}, outputs, {}, 0


def cmd_abel_inv(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    outputs = _radial(params, args.even, EvenSeq, abel_inv, "f")
    return {"even": args.even}, outputs, {}, 0


def cmd_dual(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    outputs = _radial(params, args.even, EvenSeq, dual_abel, "dual", args.nmax)
    return {"even": args.even, "nmax": args.nmax}, outputs, {}, 0


def cmd_dual_inv(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    outputs = _radial(params, args.radial, RadialSeq, dual_abel_inv, "g")
    return {"radial": args.radial}, outputs, {}, 0


def cmd_spherical(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    if args.nmax > _MAX_PHI_TERMS:
        raise ValueError(f"--nmax {args.nmax} is past the bound of {_MAX_PHI_TERMS} terms")
    table, outputs = _phi_rows(params, args.lam, args.nmax)
    diagnostics = {}
    if args.oracle_depth is not None:
        check_depth(params, args.oracle_depth)
        worst = 0.0
        words = [next(iter(sphere(params, n)))
                 for n in range(min(args.nmax, args.oracle_depth - 1) + 1)]
        for n, oracle in enumerate(_phi_oracles(params, args.lam, words, args.oracle_depth)):
            outputs += _rows(f"oracle[{n}]", oracle)
            worst = max(worst, abs(oracle - table[n]))
        diagnostics["oracle_max_deviation"] = worst
    return {"lambda": args.lam, "nmax": args.nmax}, outputs, diagnostics, 0


def cmd_transform(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    f = RadialSeq.of(params, _parse_seq(params, args.radial))
    outputs = _on_lambda_grid(params, args.grid, "H",
                              lambda lam: complex(spherical_transform(f, lam)))
    inputs = {"radial": args.radial, "grid": args.grid, "lambda_max": params.tau / 2.0}
    return inputs, outputs, {}, 0


def cmd_plancherel(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    f = RadialSeq.of(params, _parse_seq(params, args.radial))
    direct = f.norm_sq()
    spectral = plancherel_norm(f, tol=args.tol)
    outputs = _rows("norm_sq_direct", direct) + _rows("norm_sq_spectral", spectral.value)
    diagnostics = {"quadrature_error": spectral.error,
                   "mismatch": abs(spectral.value - float(direct))}
    return {"radial": args.radial}, outputs, diagnostics, 0


def cmd_helgason(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    f = _parse_vertex_fun(params, args.values)
    ray = BoundaryRay(parse_word(params, args.ray))
    value = helgason_transform(f, args.lam, ray)
    outputs = _rows("fhat", value)
    return {"values": args.values, "lambda": args.lam, "ray": args.ray}, outputs, {}, 0


def cmd_invert(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    x = parse_word(params, args.at)
    if args.radial is not None:
        f = RadialSeq.of(params, _parse_seq(params, args.radial))
        res = invert_spherical(f, x, tol=args.tol)
        direct = f.value(len(x))
    else:
        fun = _parse_vertex_fun(params, args.values)
        depth = args.depth if args.depth else max(fun.support_radius(), len(x)) + 1
        res = invert_helgason(fun, x, depth, tol=args.tol)
        direct = fun.value(x)
    outputs = _rows("recovered", res.value) + _rows("direct", direct)
    diagnostics = {"quadrature_error": res.error,
                   "mismatch": abs(res.value - float(direct))}
    return {"at": args.at}, outputs, diagnostics, 0


def cmd_ks_check(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    if params.k > params.r:
        raise ValueError("the smoothing inequality is checked for k <= r only")
    products = args.trials * ball_size(params, 1) * ball_size(params, 2)
    if products > _MAX_KS_PRODUCTS:
        raise ValueError(f"{args.trials} trials at ({params.k}, {params.r}) take {products} "
                         f"products, past the bound of {_MAX_KS_PRODUCTS}")
    rng = random.Random(args.seed)
    worst = {"core": 0.0, "young": 0.0, "holder": 0.0}
    witness = None
    # every trial draws f on ball(1) and a kernel of radius 2: one index serves them all
    pool = [w.syllables for w in ball(params, 1)]
    index = _radial_gather(params, pool, 2)
    for trial in range(args.trials):
        rows, values = [], []
        for row in range(len(pool)):
            if rng.random() < 0.8:
                rows.append(row)
                values.append(rng.uniform(-1, 1))
        report = _ks_trial(index, rows, values, [rng.uniform(0, 1) for _ in range(3)])
        ratios = {"core": report.core_ratio, "young": report.young_ratio,
                  "holder": report.holder_ratio}
        for name, value in ratios.items():
            if value > worst[name]:
                worst[name] = value
            if value > 1.0 + 1e-12 and witness is None:
                witness = {"trial": trial, "ratio": name, "value": value}
    outputs = [row for name in ("core", "young", "holder")
               for row in _rows(f"worst_{name}_ratio", worst[name])]
    diagnostics = {}
    code = 0
    if witness:
        diagnostics["witness"] = witness
        code = 1
    return {"trials": args.trials, "seed": args.seed}, outputs, diagnostics, code


def cmd_wave(params: GraphParams, args) -> tuple[dict, list, dict, int]:
    data = CauchyData(
        _parse_vertex_fun(params, args.f),
        _parse_vertex_fun(params, args.g),
    )
    if args.at:
        try:
            word_text, n_text = args.at.rsplit(",", 1)
            n = int(n_text)
        except ValueError:
            raise ValueError(f"--at expects WORD,TIME, got {args.at!r}") from None
        x = parse_word(params, word_text)
        if abs(n) > args.steps:
            raise ValueError(f"time {n} beyond --steps {args.steps}")
        times, words = [n], [x]
        observe, latest = len(x), abs(n)
    else:
        observe, latest = data.support_radius + args.steps, args.steps
    # the work bounds, before any work; they also bound the output loop's
    # ball_size(params, supp + |n|), an integer of order q^|n| that is slow
    # to build for a time past them
    if not args.at or args.method != "closed":
        check_window(params, data.support_radius, args.steps, observe)
    if args.method != "direct":
        _check_closed_time(params, latest)
    if not args.at:
        times = range(-args.steps, args.steps + 1)
        words = list(ball(params, observe))
    labels = [str(x) for x in words]
    diagnostics = {}
    outputs = []
    field = None
    if args.method in ("direct", "both"):
        field = wave_direct(params, data, args.steps, observe_radius=observe)
        if not args.at:  # every value is printed: decode each slice whole
            field.decode_all()
    worst = 0.0
    for n in times:
        # ball() goes sphere by sphere: the ball at time n is a prefix of words
        for x, label in zip(words[:ball_size(params, data.support_radius + abs(n))], labels):
            if args.method == "direct":
                value = field.at(x, n)
            else:
                value = wave_closed_at(params, data, x, n)
                if args.method == "both":
                    worst = max(worst, abs(value - field.at(x, n)))
            outputs += _rows(f"u[{n}][{label}]", value)
    if args.method == "both":
        diagnostics["max_discrepancy"] = worst
    inputs = {"f": args.f, "g": args.g, "steps": args.steps, "method": args.method}
    return inputs, outputs, diagnostics, 0


def cmd_verify(params: GraphParams | None, args) -> tuple[dict, list, dict, int]:
    if params is not None:
        grid = [params]
        words = ball_size(params, 4)
        if words > _MAX_VERIFY_BALL:
            raise ValueError(f"the ball of radius 4 at ({params.k}, {params.r}) holds {words} "
                             f"words, past the bound of {_MAX_VERIFY_BALL}")
    else:
        grid = grid_params()
    ok, collected = run_suite(args.suite, grid, args.seed)
    outputs = []
    diagnostics = {}
    for point, suite_name, result in collected:
        key = f"{suite_name}[k={point.k},r={point.r}]:{result.name}"
        outputs.append({"key": key, "exact": None, "float": 1.0 if result.ok else 0.0})
        if not result.ok and "witness" not in diagnostics:
            diagnostics["witness"] = {
                "suite": suite_name, "k": point.k, "r": point.r,
                "check": result.name, **result.witness,
            }
    return {"suite": args.suite, "seed": args.seed}, outputs, diagnostics, 0 if ok else 1


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def positive_float(text: str) -> float:
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgraph",
        description="harmonic analysis on polygon-symmetric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, need_params=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--k", type=int, required=need_params, help="polygon side count (>= 2)")
        p.add_argument("--r", type=int, required=need_params, help="polygons per vertex (>= 2)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=positive_float, default=1e-9)
        p.add_argument("--threads", type=positive_int, default=1,
                       help="accepted for compatibility; work runs on one thread")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        return p

    command("info", cmd_info, "derived constants of the (k, r) graph")

    p = command("table", cmd_table, "tabulate sphere counts, horocycle counts, phi or the density")
    p.add_argument("table", choices=("delta", "b", "phi", "c2"))
    p.add_argument("--nmax", type=nonnegative_int, default=6)
    p.add_argument("--hmax", type=nonnegative_int, default=6)
    p.add_argument("--grid", type=positive_int, default=16)
    p.add_argument("--lambda", dest="lam", type=finite_float, default=0.5)

    p = command("abel", cmd_abel, "Abel transform of a radial sequence")
    p.add_argument("--radial", required=True, help='comma list, e.g. "1,1/2,0"')

    p = command("abel-inv", cmd_abel_inv, "inverse Abel transform of an even sequence")
    p.add_argument("--even", required=True)

    p = command("dual", cmd_dual, "dual Abel transform of an even sequence")
    p.add_argument("--even", required=True)
    p.add_argument("--nmax", type=nonnegative_int, default=None)

    p = command("dual-inv", cmd_dual_inv, "inverse dual Abel transform of a radial sequence")
    p.add_argument("--radial", required=True)

    p = command("spherical", cmd_spherical,
                "spherical function values, optionally vs the boundary oracle")
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    p.add_argument("--nmax", type=nonnegative_int, default=8)
    p.add_argument("--oracle-depth", type=positive_int, default=None)

    p = command("transform", cmd_transform, "spherical transform on a lambda grid")
    p.add_argument("--radial", required=True)
    p.add_argument("--grid", type=positive_int, default=33)

    p = command("plancherel", cmd_plancherel, "compare direct and spectral L2 norms")
    p.add_argument("--radial", required=True)

    p = command("helgason", cmd_helgason, "boundary Fourier transform of a vertex function")
    p.add_argument("--values", required=True, help='semicolon list, e.g. "e:1;a0^1:1/2"')
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    p.add_argument("--ray", required=True, help='ray prefix word, e.g. "a0^1.a1^1.a0^1"')

    p = command("invert", cmd_invert, "recover a function value from its transform")
    p.add_argument("--at", required=True, help="target word")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--radial", help="radial sequence (spherical inversion)")
    source.add_argument("--values", help="vertex values (boundary inversion)")
    p.add_argument("--depth", type=nonnegative_int, default=None,
                   help="cylinder depth; 0 or absent means max(support, |at|) + 1")

    p = command("ks-check", cmd_ks_check, "measure the convolution-smoothing ratios")
    p.add_argument("--trials", type=positive_int, default=100)

    p = command("wave", cmd_wave, "solve the shifted wave equation")
    p.add_argument("--f", default="", help="initial value, word:value list")
    p.add_argument("--g", default="", help="initial velocity, word:value list")
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--method", choices=("closed", "direct", "both"), default="both")
    p.add_argument("--at", default=None, help='evaluation point "word,n"')

    p = command("verify", cmd_verify, "run an invariant suite (exit 1 on failure)",
                need_params=False)
    p.add_argument("--suite", default="all",
                   choices=("group", "boundary", "abel", "dual", "spectral", "wave", "all"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if args.command == "table":
        if args.nmax > 12 or args.hmax > 12 or args.grid > 1024:
            parser.error("table ranges capped at nmax, hmax <= 12 and grid <= 1024")

    if (args.k is None) != (args.r is None):
        parser.error("give both --k and --r, or neither")
    params = None
    if args.k is not None:
        try:
            params = GraphParams(args.k, args.r)
        except ValueError as exc:
            parser.error(str(exc))

    try:
        inputs, outputs, diagnostics, code = args.handler(params, args)
        text = _emit(params, args, inputs, outputs, diagnostics, started)
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: value outside the float range", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}; achieved error {exc.achieved:.3g}", file=sys.stderr)
        return 1

    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
