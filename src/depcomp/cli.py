"""Command-line frontend.

Verbs: ``gen`` (write a random system), ``simulate`` (draw observations),
``estimate`` (empirical joint law from observations), ``invert`` (recover a
system from a joint law or raw observations), ``check`` (structural
diagnostics on a system file), ``verify`` (run named self-check suites).

Exit codes: 0 success, 2 validation failure (bad files, bad sizes), 3 failed
verify suite, 64 usage error (missing or contradictory flags).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .analysis import (
    conjunctive_fork_check,
    kernels_equal,
    min_activation_order,
    pairwise_mutual_information,
    parameter_count_feasible,
)
from .core import free_parameters, output_distribution
from .inversion import InversionConfig, recover_system
from .io import (
    load_samples,
    load_system,
    load_tensor,
    render_json,
    result_document,
    save_result,
    save_samples,
    save_system,
    save_tensor,
)
from .sampling import ml_estimate, random_system, sample_dcs, type_counts
from .verify import SUITE_NAMES, run_suite

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="depcomp", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="verb")

    gen = sub.add_parser("gen", help="write a random hidden system")
    gen.add_argument("--L", type=int, required=True, help="hidden alphabet size")
    gen.add_argument("--Lprime", type=int, default=None, help="output alphabet size (default: L)")
    gen.add_argument("--K", type=int, required=True, help="number of channels")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="system file path")
    gen.set_defaults(func=_cmd_gen)

    sim = sub.add_parser("simulate", help="draw observations from a system file")
    sim.add_argument("--system", required=True)
    sim.add_argument("--n", type=int, required=True, help="number of records")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="sample CSV path")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="empirical joint law from observations")
    est.add_argument("--samples", required=True)
    est.add_argument("--Lprime", type=int, default=None, help="output alphabet size (default: max observed symbol)")
    est.add_argument("--out", required=True, help="tensor file path")
    est.set_defaults(func=_cmd_estimate)

    inv = sub.add_parser("invert", help="recover a hidden system from a joint law")
    src = inv.add_mutually_exclusive_group(required=True)
    src.add_argument("--q", help="tensor file with the joint law")
    src.add_argument("--samples", help="sample CSV (estimated internally first)")
    inv.add_argument("--L", type=int, required=True, help="hidden alphabet size to fit")
    inv.add_argument("--Lprime", type=int, default=None, help="output alphabet size for --samples")
    inv.add_argument("--restarts", type=int, default=InversionConfig.restarts)
    inv.add_argument(
        "--max-iters", type=int, default=InversionConfig.max_iters, dest="max_iters",
        help="sweeps per restart; a sweep is one update of every block plus one extrapolation",
    )
    inv.add_argument("--seed", type=int, default=0)
    inv.add_argument("--out", default=None, help="result file path (default: print to stdout)")
    inv.set_defaults(func=_cmd_invert)

    chk = sub.add_parser("check", help="structural diagnostics")
    what = chk.add_subparsers(dest="what", required=True, metavar="diagnostic")

    c_act = what.add_parser("activation", help="smallest channel power separating hidden symbols")
    c_act.add_argument("--system", required=True)
    c_act.add_argument("--Kmax", type=int, default=6)
    c_act.set_defaults(func=_cmd_check_activation)

    c_ker = what.add_parser("kernels", help="do all channels lose the same information?")
    c_ker.add_argument("--system", required=True)
    c_ker.set_defaults(func=_cmd_check_kernels)

    c_fork = what.add_parser("fork", help="outputs independent given the hidden symbol?")
    c_fork.add_argument("--system", required=True)
    c_fork.set_defaults(func=_cmd_check_fork)

    c_par = what.add_parser("params", help="parameter-count feasibility of recovery")
    c_par.add_argument("--L", type=int, required=True)
    c_par.add_argument("--K", type=int, required=True)
    c_par.set_defaults(func=_cmd_check_params)

    c_mi = what.add_parser("mi", help="pairwise output dependence of a system")
    c_mi.add_argument("--system", required=True)
    c_mi.set_defaults(func=_cmd_check_mi)

    ver = sub.add_parser("verify", help="run named self-check suites")
    ver.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    return parser


def _cmd_gen(args) -> int:
    Lprime = args.L if args.Lprime is None else args.Lprime
    system = random_system(args.L, Lprime, args.K, args.seed)
    save_system(args.out, system)
    print(f"wrote system L={args.L} Lprime={Lprime} K={args.K} to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    system = load_system(args.system)
    batch = sample_dcs(system, args.n, args.seed)
    save_samples(args.out, batch)
    print(f"wrote {batch.n} records to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    batch = load_samples(args.samples, args.Lprime)
    q_hat = ml_estimate(type_counts(batch))
    save_tensor(args.out, q_hat)
    print(f"wrote empirical law over shape {q_hat.shape} (n={batch.n}) to {args.out}")
    return 0


def _cmd_invert(args) -> int:
    if args.q is not None and args.Lprime is not None:
        print("depcomp invert: error: --Lprime applies only to --samples", file=sys.stderr)
        return USAGE_ERROR
    if args.q is not None:
        q_hat = load_tensor(args.q)
    else:
        q_hat = ml_estimate(type_counts(load_samples(args.samples, args.Lprime)))
    config = InversionConfig(
        L=args.L,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = recover_system(q_hat, config)
    if args.out is not None:
        save_result(args.out, result, config)
        print(
            f"objective {result.objective_kind}={result.objective_value:.6e} "
            f"converged={result.converged} near_boundary={result.near_boundary} -> {args.out}"
        )
    else:
        sys.stdout.write(render_json(result_document(result, config)))
    return 0


def _cmd_check_activation(args) -> int:
    system = load_system(args.system)
    for k, ch in enumerate(system.channels, start=1):
        order = min_activation_order(ch, args.Kmax)
        verdict = f"separates all hidden symbols at K={order}" if order else f"not separating up to K={args.Kmax}"
        print(f"channel {k}: {verdict}")
    return 0


def _cmd_check_kernels(args) -> int:
    system = load_system(args.system)
    same = kernels_equal(system.channels)
    print("all channels share one kernel" if same else "channels have differing kernels")
    return 0


def _cmd_check_fork(args) -> int:
    system = load_system(args.system)
    ok = conjunctive_fork_check(system)
    print("outputs are independent given the hidden symbol" if ok else "screening-off FAILS")
    return 0


def _cmd_check_params(args) -> int:
    L, K = args.L, args.K
    feasible = parameter_count_feasible(L, K)
    # Counts beyond 64 bits print as formulas: `str` refuses ints of over 4300 digits.
    lhs = L**K - 1 if K * L.bit_length() <= 64 else f"{L}^{K}-1"
    rhs = free_parameters(L, L, K)
    rhs = rhs if rhs.bit_length() <= 64 else f"({L}-1)+{K}*{L}*({L}-1)"
    rel = ">=" if feasible else "<"
    print(f"free cells {lhs} {rel} free parameters {rhs}: {'feasible' if feasible else 'infeasible'}")
    return 0


def _cmd_check_mi(args) -> int:
    system = load_system(args.system)
    mi = pairwise_mutual_information(output_distribution(system))
    print("pairwise dependence matrix (bits; diagonal = marginal entropies):")
    for row in mi:
        print("  " + "  ".join(f"{v:10.6f}" for v in row))
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    any_failed = False
    for name in names:
        report = run_suite(name, args.seed)
        print(f"suite {name}: {'PASS' if report.passed else 'FAIL'}")
        for line in report.lines:
            print("  " + line)
        any_failed = any_failed or not report.passed
    return 3 if any_failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building the tree costs far more than a parse,
    and parsing leaves nothing behind in the parser."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
