"""Command-line driver: dataset generation, certification, witness
evaluation, product-state search, and parameter sweeps.

Exit codes: 0 separable-compatible (or generic success), 1 solver failure,
2 usage/parameter error, 3 entanglement detected.  All outputs are UTF-8;
JSON documents carry a format_version field.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from . import __version__
from ._blas import SOLVE_BLAS_THREADS
from .corrdata import read_dataset, write_dataset
from .errors import NotEntangled, SepcertError, SolverFailure
from .momentmat import GENERAL_SCHEME, SchemeKind, SymmetryScheme
from .physmodels import (ModelKind, ModelSpec, commensurate_grid,
                         concurrence_noise_robustness,
                         optimal_structure_witness, quench_amplitudes,
                         quench_dataset, thermal_dataset_ed, werner_dataset)
from .sdpcore import SdpStatus, SolverOptions, certify, extract_witness
from .seporacle import (DEFAULT_RESTARTS, dataset_of, max_over_product_states,
                        random_product_state)
from .witnesslab import bipartite_witness_value, read_witness, eval_witness, write_witness

FORMAT_VERSION = 1

EXIT_SEPARABLE = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2
EXIT_ENTANGLED = 3

_FORCED_SCHEMES = {
    "general": GENERAL_SCHEME,
    "axis": SymmetryScheme(SchemeKind.AXIS_DIAGONAL, frozenset({0, 1})),
    "transverse": SymmetryScheme(SchemeKind.TRANSVERSE_SYMMETRIC, frozenset({0, 1}),
                                 ((0, 1), (2,))),
    "rotation": SymmetryScheme(SchemeKind.ROTATION_INVARIANT, frozenset({0, 1, 2}),
                               ((0, 1, 2),)),
}


def _out_flag(parser):
    parser.add_argument("--out", default=".", help="output directory (default: .)")


def _seed_flag(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _positive(kind):
    def parse(text):
        value = kind(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite.__name__ = "float"  # argparse names the type in its messages


def _solver_flags(parser):
    parser.add_argument("--tol", type=_positive(float), default=SolverOptions.tol,
                        help="solver gap/feasibility tolerance")
    parser.add_argument("--max-iter", type=_positive(int), default=SolverOptions.max_iter)
    parser.add_argument("--level", type=int, choices=(1, 2), default=1,
                        help="relaxation level")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _scheme_of(args):
    return None if args.scheme == "auto" else _FORCED_SCHEMES[args.scheme]


def _write_manifest(args, stem: str, outputs) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": f"sepcert {__version__}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "solve_blas_threads": SOLVE_BLAS_THREADS,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "outputs": outputs,
    }
    path = os.path.join(args.out, f"{stem}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def _float_tag(x: float) -> str:
    return f"{x:g}"


# -- generate -----------------------------------------------------------------


def cmd_generate(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "werner":
        ds = werner_dataset(args.noise)
        stem = f"werner_lam{_float_tag(args.noise)}"
    elif args.kind == "quench-1d":
        ds = quench_dataset(quench_amplitudes(args.n, args.time))
        stem = f"quench1d_n{args.n}_t{_float_tag(args.time)}"
    elif args.kind == "thermal":
        spec = ModelSpec(kind=ModelKind(args.model), n=args.n, g=args.g)
        ds = thermal_dataset_ed(spec, args.temp)
        gtag = f"_g{_float_tag(args.g)}" if args.model == "ising" else ""
        stem = f"thermal_{args.model}_n{args.n}{gtag}_T{_float_tag(args.temp)}"
    elif args.kind == "product-random":
        ds = dataset_of(random_product_state(args.n, args.seed))
        stem = f"product_n{args.n}_seed{args.seed}"
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)
    path = os.path.join(args.out, f"{stem}.json")
    write_dataset(ds, path)
    _write_manifest(args, stem, [path])
    print(f"wrote {path} ({ds.n_entries()} correlators, n={ds.n_sites})")
    return EXIT_SEPARABLE


# -- certify ------------------------------------------------------------------


def cmd_certify(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    ds = read_dataset(args.dataset)
    stem = os.path.splitext(os.path.basename(args.dataset))[0]
    solution, problem = certify(ds, level=args.level, scheme=_scheme_of(args),
                                options=_solver_options(args),
                                keep_trace=args.solver_trace)
    layout = problem.layout
    if args.dump_layout:
        print(layout.render_grid())
    outputs = []
    if args.solver_trace:
        trace_path = os.path.join(args.out, f"{stem}.trace.csv")
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["iter", "mu", "pinfeas", "dinfeas",
                                                    "relgap", "sigma", "alpha_p", "alpha_d",
                                                    "schur_s"])
            writer.writeheader()
            for row in solution.trace:
                writer.writerow(row)
        outputs.append(trace_path)

    verdict = "entangled" if solution.entangled else "separable-compatible"
    print(f"status={solution.status.value} lambda_star={solution.lambda_star:.9f} "
          f"gap={solution.duality_gap:.3e} iterations={solution.iterations} "
          f"scheme={layout.scheme.kind.value} verdict={verdict}")

    sol_doc = {
        "format_version": FORMAT_VERSION,
        "status": solution.status.value,
        "lambda_star": solution.lambda_star,
        "duality_gap": solution.duality_gap,
        "pinfeas": solution.pinfeas,
        "dinfeas": solution.dinfeas,
        "dual_feas_residual": solution.dual_feas_residual,
        "strong_duality_residual": solution.strong_duality_residual,
        "iterations": solution.iterations,
        "solver_blocks": problem.reduced.block_dims,
        "solver_dims": problem.reduced.solver_dims,
        "scheme": layout.scheme.kind.value,
        "level": args.level,
        "verdict": verdict,
    }
    if solution.entangled:
        witness = extract_witness(solution, problem)
        witness_path = os.path.join(args.out, f"{stem}.witness.json")
        write_witness(witness, witness_path,
                      extra={"lambda_star": solution.lambda_star,
                             "source_dataset": os.path.basename(args.dataset)})
        outputs.append(witness_path)
        sol_doc["witness"] = {
            "coefficients": [{"label": k, "value": v}
                             for k, v in sorted(witness.coefficients.items())],
            "separable_bound": witness.separable_bound,
        }
        print(f"wrote witness with {len(witness.coefficients)} coefficients, "
              f"separable bound {witness.separable_bound:.9f}")
    sol_path = os.path.join(args.out, f"{stem}.solution.json")
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(sol_doc, fh, indent=1)
        fh.write("\n")
    outputs.append(sol_path)
    _write_manifest(args, stem, outputs)
    if solution.status is not SdpStatus.OPTIMAL:
        print(f"solver did not certify a solution ({solution.status.value})",
              file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_ENTANGLED if solution.entangled else EXIT_SEPARABLE


# -- witness eval ----------------------------------------------------------------


def cmd_witness_eval(args) -> int:
    witness = read_witness(args.witness)
    ds = read_dataset(args.dataset)
    ev = eval_witness(witness, ds)
    print(f"value={ev.value:.12g} bound={ev.bound:.12g} orientation={ev.orientation} "
          f"violated={str(ev.violated).lower()} margin={ev.margin:.12g}")
    return EXIT_SEPARABLE


# -- oracle product-search --------------------------------------------------------


def cmd_product_search(args) -> int:
    witness = read_witness(args.witness)
    best, state = max_over_product_states(witness, args.n, restarts=args.restarts,
                                          seed=args.seed)
    print(f"best_value={best:.12g} bound={witness.separable_bound:.12g} "
          f"gap_to_bound={witness.separable_bound - best:.3e}")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "product_search.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": FORMAT_VERSION, "best_value": best,
                   "bound": witness.separable_bound,
                   "bloch": state.bloch.tolist()}, fh, indent=1)
        fh.write("\n")
    _write_manifest(args, "product_search", [path])
    return EXIT_SEPARABLE


# -- sweep -------------------------------------------------------------------------


def _sweep_point(kind: str, point: float, args_dict: dict) -> dict:
    """One sweep row; runs in a worker process."""
    row = {"parameter": point, "lambda_star": "", "gap": "", "iterations": "",
           "structure_witness": "", "bipartite_witness": "",
           "concurrence_robustness": "", "status": ""}
    try:
        if kind == "quench-1d":
            amps = quench_amplitudes(args_dict["n"], point)
            ds = quench_dataset(amps)
        else:
            spec = ModelSpec(kind=ModelKind(args_dict["model"]), n=args_dict["n"],
                             g=args_dict["g"])
            ds = thermal_dataset_ed(spec, point)
            amps = None
        solution, _ = certify(ds, level=args_dict["level"], options=args_dict["options"])
        row["status"] = solution.status.value
        row["lambda_star"] = f"{solution.lambda_star:.12g}"
        row["gap"] = f"{solution.duality_gap:.3e}"
        row["iterations"] = solution.iterations
        grid = commensurate_grid(ds.n_sites)
        row["structure_witness"] = f"{optimal_structure_witness(ds, grid).value:.12g}"
        if ds.n_sites % 4 == 0:
            row["bipartite_witness"] = f"{bipartite_witness_value(ds).value:.12g}"
        if amps is not None:
            row["concurrence_robustness"] = f"{concurrence_noise_robustness(amps):.12g}"
    except SepcertError as exc:
        row["status"] = f"error: {exc}"
    return row


def cmd_sweep(args) -> int:
    tokens = [tok.strip() for tok in args.grid.split(",") if tok.strip() != ""]
    if not tokens:
        print("error: sweep grid is empty", file=sys.stderr)
        return EXIT_USAGE
    points = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            print(f"error: sweep grid value {tok!r} is not a finite number", file=sys.stderr)
            return EXIT_USAGE
        points.append(value)
    os.makedirs(args.out, exist_ok=True)
    args_dict = {"n": args.n, "g": args.g, "model": getattr(args, "model", None),
                 "level": args.level, "options": _solver_options(args)}
    workers = min(args.workers, len(points))  # the pool starts every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, [args.kind] * len(points), points,
                                 [args_dict] * len(points)))
    else:
        rows = [_sweep_point(args.kind, p, args_dict) for p in points]
    stem = f"sweep_{args.kind.replace('-', '')}"
    path = os.path.join(args.out, f"{stem}.csv")
    fields = ["parameter", "lambda_star", "gap", "iterations", "structure_witness",
              "bipartite_witness", "concurrence_robustness", "status"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    _write_manifest(args, stem, [path])
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_SEPARABLE


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcert",
        description="Certify multipartite entanglement from partial correlation data.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a dataset file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_werner = gen_sub.add_parser("werner", help="noisy-singlet pair")
    g_werner.add_argument("--lambda", dest="noise", type=float, required=True)
    g_quench = gen_sub.add_parser("quench-1d", help="single-flip quench on an XX ring")
    g_quench.add_argument("--n", type=int, required=True)
    g_quench.add_argument("--time", type=float, required=True)
    g_thermal = gen_sub.add_parser("thermal", help="thermal chain by exact diagonalization")
    g_thermal.add_argument("--model", choices=("heisenberg", "ising"), required=True)
    g_thermal.add_argument("--n", type=int, required=True)
    g_thermal.add_argument("--temp", type=float, required=True)
    g_thermal.add_argument("--g", type=_finite, default=0.0, help="transverse field (ising)")
    g_product = gen_sub.add_parser("product-random", help="random product state")
    g_product.add_argument("--n", type=int, required=True)
    _seed_flag(g_product)
    for p in (g_werner, g_quench, g_thermal, g_product):
        _out_flag(p)
        p.set_defaults(func=cmd_generate)

    cert = sub.add_parser("certify", help="solve the noise-robustness program")
    cert.add_argument("dataset")
    _out_flag(cert)
    _solver_flags(cert)
    cert.add_argument("--scheme", choices=("auto", "general", "axis",
                                           "transverse", "rotation"),
                      default="auto", help="symmetrization scheme")
    cert.add_argument("--dump-layout", action="store_true",
                      help="print the moment-matrix entry-kind grid")
    cert.add_argument("--solver-trace", action="store_true",
                      help="write per-iteration solver residuals as CSV")
    cert.set_defaults(func=cmd_certify)

    wit = sub.add_parser("witness", help="witness utilities")
    wit_sub = wit.add_subparsers(dest="witness_command", required=True)
    wev = wit_sub.add_parser("eval", help="evaluate a witness file on a dataset")
    wev.add_argument("witness")
    wev.add_argument("dataset")
    wev.set_defaults(func=cmd_witness_eval)

    orc = sub.add_parser("oracle", help="separable-side oracles")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    ops = orc_sub.add_parser("product-search",
                             help="maximize a witness over product states")
    ops.add_argument("witness")
    ops.add_argument("--n", type=int, required=True)
    ops.add_argument("--restarts", type=_positive(int), default=DEFAULT_RESTARTS)
    _out_flag(ops)
    _seed_flag(ops)
    ops.set_defaults(func=cmd_product_search)

    swp = sub.add_parser("sweep", help="certify along a parameter grid")
    swp_sub = swp.add_subparsers(dest="kind", required=True)
    s_quench = swp_sub.add_parser("quench-1d")
    s_quench.add_argument("--n", type=int, required=True)
    s_quench.add_argument("--grid", required=True, help="comma-separated times")
    s_thermal = swp_sub.add_parser("thermal")
    s_thermal.add_argument("--model", choices=("heisenberg", "ising"), required=True)
    s_thermal.add_argument("--n", type=int, required=True)
    s_thermal.add_argument("--grid", required=True, help="comma-separated temperatures")
    s_thermal.add_argument("--g", type=_finite, default=0.0)
    for p in (s_quench, s_thermal):
        p.add_argument("--workers", type=_positive(int), default=min(4, os.cpu_count() or 1))
        _out_flag(p)
        _solver_flags(p)
        p.set_defaults(func=cmd_sweep)
    s_quench.set_defaults(g=0.0, model=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotEntangled as exc:
        print(f"note: {exc}", file=sys.stderr)
        return EXIT_SEPARABLE
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except SepcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
