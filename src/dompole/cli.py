"""Command-line front end.

Subcommands:
    poles    run a solver on a manifest system and emit a JSON report
    tf       sample the transfer function, optionally against a modal sum
    gen      generate a synthetic system with a known spectrum
    bench    compare methods on one system (iterations and wall time)
    spy      sparsity summary and coordinate dump of the Jacobian
    polemap  turn a report into plot-ready pole-map data

Exit codes: 0 on success (all requested poles converged), 2 when a solver
run ends with unconverged columns, 1 on input errors (among them a
structurally singular J - sE, singular for every s) and on solver errors (a
shift that stays unusable after its moves, a failed QZ).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from . import __version__
from .descriptor import (
    eval_transfer,
    load_manifest,
    load_system,
    reduce_to_state_space,
    validate,
)
from .generator import GeneratorError, build_system, sample_spectrum, write_system
from .oracle import modal_reconstruct, residues
from .sparsela import EigenSolverError, SingularMatrixError, StructurallySingularError
from .solver import (
    SolverConfig,
    SolverError,
    damping_ratio,
    init_shifts,
    run,
)

# ManifestError, MatrixMarketError and json.JSONDecodeError are ValueErrors
_INPUT_ERRORS = (ValueError, OSError, GeneratorError, StructurallySingularError)


def _parse_complex_list(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            # a trailing imaginary unit may be written i; "inf" stays intact
            out.append(complex(tok[:-1] + "j" if tok.endswith("i") else tok))
        except ValueError as exc:
            raise ValueError(f"cannot parse complex number '{tok}'") from exc
    if not out:
        raise ValueError("empty shift list")
    return out


def _resolve_shifts(text, p, scale):
    """Turn the --shifts flag into (shift array, effective p)."""
    if text in ("fan", "ring"):
        if p is None:
            raise ValueError(f"--p is required with the '{text}' pattern")
        return init_shifts(text, p, scale=scale), p
    values = _parse_complex_list(text)
    if p is not None and p != len(values):
        raise ValueError(f"--p {p} does not match {len(values)} explicit shifts")
    return init_shifts(values), len(values)


def _write_text(path, text):
    if path is None or path == "-":
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _report_json(report, seed=None):
    data = report.to_dict()
    data["config"]["seed"] = seed
    return json.dumps(data, indent=1, sort_keys=True)


def _pole_csv(report):
    lines = [
        "re,im,residue_re,residue_im,dominance,damping_ratio,iterations,"
        "residual_right,residual_left,time_s"
    ]
    for p in report.poles:
        r = p.row()
        dom = "inf" if r["dominance_infinite"] else repr(r["dominance"])
        lines.append(
            f'{r["re"]!r},{r["im"]!r},{r["residue_re"]!r},{r["residue_im"]!r},'
            f'{dom},{r["damping_ratio"]!r},{r["iterations"]},'
            f'{r["residual_right"]!r},{r["residual_left"]!r},{r["time_s"]!r}'
        )
    return "\n".join(lines)


def cmd_poles(args):
    system = load_system(args.manifest)
    shifts, p = _resolve_shifts(args.shifts, args.p, complex(args.scale))
    config = SolverConfig(method=args.method, p=p, tol=args.tol, max_iter=args.max_iter)
    report = run(system, config, initial_shifts=shifts)
    _write_text(args.out, _report_json(report, seed=args.seed))
    if args.csv:
        _write_text(args.csv, _pole_csv(report))
    return 0 if report.all_converged else 2


def cmd_tf(args):
    system = load_system(args.manifest)
    if args.s:
        samples = _parse_complex_list(args.s)
    elif args.wmin is not None and args.wmax is not None:
        if args.wmin <= 0 or args.wmax <= args.wmin:
            raise ValueError("need 0 < wmin < wmax for a frequency sweep")
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        omegas = np.logspace(np.log10(args.wmin), np.log10(args.wmax), args.points)
        samples = [1j * w for w in omegas]
    else:
        raise ValueError("provide --s or a --wmin/--wmax sweep")

    table = None
    if args.compare_modal is not None:
        ss = reduce_to_state_space(system)
        table = residues(ss)

    header = "s_re,s_im,h_re,h_im"
    if table is not None:
        header += ",modal_re,modal_im,rel_error"
    lines = [header]
    for s in samples:
        try:
            h = eval_transfer(system, s).value
        except StructurallySingularError:  # singular for every s
            raise
        except SingularMatrixError as exc:  # sample sits on a pole
            print(f"warning: skipping s = {s}: {exc}", file=_sys.stderr)
            continue
        row = f"{s.real!r},{s.imag!r},{h.real!r},{h.imag!r}"
        if table is not None:
            approx = modal_reconstruct(table, ss.d, s, args.compare_modal)
            rel = abs(approx - h) / max(abs(h), 1e-300)
            row += f",{approx.real!r},{approx.imag!r},{rel!r}"
        lines.append(row)
    _write_text(args.out, "\n".join(lines))
    return 0


def cmd_gen(args):
    rng = np.random.default_rng(args.seed)
    spectrum = sample_spectrum(
        args.n_states,
        args.pairs,
        damping_range=(args.damping_min, args.damping_max),
        rng=rng,
        freq_range=(args.freq_min, args.freq_max),
    )
    gen = build_system(
        spectrum,
        n_algebraic=args.n_algebraic,
        density=args.density,
        rng=rng,
        residue_floor=args.residue_floor,
        seed_record=args.seed,
    )
    manifest_path = write_system(gen, args.out_dir, name=args.name)
    print(manifest_path)
    return 0


def cmd_bench(args):
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("empty method list")
    system = load_system(args.manifest)
    shifts, p = _resolve_shifts(args.shifts, args.p, complex(args.scale))
    lines = ["method,k,re,im,iterations,cpu_s,dominance"]
    summaries = []
    for method in methods:
        config = SolverConfig(
            method=method, p=p, tol=args.tol, max_iter=args.max_iter
        )
        reports = [run(system, config, initial_shifts=shifts) for _ in range(args.repeats)]
        base = reports[0]
        # deterministic iterations; wall time is the minimum across repeats
        times = {}
        for rep in reports:
            for pole in rep.poles:
                key = (round(pole.eigenvalue.real, 9), round(pole.eigenvalue.imag, 9))
                times[key] = min(times.get(key, float("inf")), pole.time_s)
        rows = sorted(base.poles, key=lambda q: (q.iterations, q.eigenvalue.imag))
        for k, pole in enumerate(rows, start=1):
            key = (round(pole.eigenvalue.real, 9), round(pole.eigenvalue.imag, 9))
            dom = "inf" if not np.isfinite(pole.dominance) else repr(pole.dominance)
            lines.append(
                f"{method},{k},{pole.eigenvalue.real!r},{pole.eigenvalue.imag!r},"
                f"{pole.iterations},{times[key]!r},{dom}"
            )
        summaries.append(
            f"# {method}: converged {base.converged_count}/{p}, "
            f"upper half-plane {base.upper_half_count}, "
            f"total {min(r.total_time_s for r in reports):.4f} s"
        )
    _write_text(args.out, "\n".join(lines + summaries))
    return 0


def cmd_spy(args):
    system = load_system(args.manifest)
    report = validate(system)
    print(f"order = {report.order}")
    print(f"ndyn = {report.ndyn}")
    print(f"nnz = {report.nnz}")
    print(f"density_pct = {report.density_pct:.6g}")
    for name, count in report.block_nnz.items():
        print(f"nnz_{name} = {count}")
    print(f"j4_nonsingular = {str(report.j4_nonsingular).lower()}")
    for note in report.notes:
        print(f"note = {note}")
    if args.coords:
        J = system.J.to_scipy()
        cols = np.repeat(np.arange(J.shape[1]), np.diff(J.indptr))
        lines = ["row,col"] + [f"{i},{j}" for i, j in zip(J.indices.tolist(), cols.tolist())]
        _write_text(args.coords, "\n".join(lines))
    return 0


def cmd_polemap(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    lines = ["kind,re,im,dominance,damping_ratio,converged,zeta,t"]
    points = []
    for row in data.get("poles", []):
        dom = "inf" if row.get("dominance_infinite") else repr(row["dominance"])
        lines.append(
            f'pole,{row["re"]!r},{row["im"]!r},{dom},'
            f'{row["damping_ratio"]!r},1,,'
        )
        points.append(complex(row["re"], row["im"]))
    for row in data.get("unconverged", []):
        lam = complex(row["re"], row["im"])
        lines.append(
            f'pole,{row["re"]!r},{row["im"]!r},,{damping_ratio(lam)!r},0,,'
        )
        points.append(lam)
    if points:
        rmax = 1.1 * max(abs(z) for z in points)
        for zeta in (0.02, 0.05, 0.1, 0.2, 0.5):
            for t in np.linspace(0.0, rmax, args.line_points):
                re = -zeta * t
                im = t * float(np.sqrt(1.0 - zeta**2))
                for sign in (1.0, -1.0):
                    lines.append(
                        f"refline,{re!r},{sign * im!r},,,,{zeta!r},{t!r}"
                    )
    _write_text(args.out, "\n".join(lines))
    return 0


def _add_shift_flags(sub):
    sub.add_argument("--p", type=int, default=None, help="number of simultaneous shifts")
    sub.add_argument(
        "--shifts",
        default="fan",
        help="'fan', 'ring', or a comma list of complex shifts (e.g. '-0.5,-2.5')",
    )
    sub.add_argument(
        "--scale",
        default="-0.05+0.5j",
        help="fan step: shift k sits at k*scale (default -0.05+0.5j)",
    )
    sub.add_argument("--tol", type=float, default=1e-5, help="relative residual tolerance")
    sub.add_argument("--max-iter", type=int, default=50, help="iteration cap per run")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dompole",
        description="Dominant-pole solvers for sparse descriptor systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poles = sub.add_parser("poles", help="run a dominant-pole solver")
    p_poles.add_argument("manifest")
    p_poles.add_argument("--method", choices=("dpse", "ddpse"), default="dpse")
    _add_shift_flags(p_poles)
    p_poles.add_argument("--seed", type=int, default=None, help="echoed into the report")
    p_poles.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_poles.add_argument("--csv", default=None, help="also write a pole-table CSV")
    p_poles.set_defaults(func=cmd_poles)

    p_tf = sub.add_parser("tf", help="sample the transfer function")
    p_tf.add_argument("manifest")
    p_tf.add_argument("--s", default=None, help="comma list of complex sample points")
    p_tf.add_argument("--wmin", type=float, default=None, help="sweep start (rad/s)")
    p_tf.add_argument("--wmax", type=float, default=None, help="sweep end (rad/s)")
    p_tf.add_argument("--points", type=int, default=200, help="sweep sample count")
    p_tf.add_argument(
        "--compare-modal",
        type=int,
        default=None,
        help="also evaluate the k-term modal approximant",
    )
    p_tf.add_argument("--out", default=None)
    p_tf.set_defaults(func=cmd_tf)

    p_gen = sub.add_parser("gen", help="generate a synthetic test system")
    p_gen.add_argument("--n-states", type=int, required=True)
    p_gen.add_argument("--n-algebraic", type=int, default=0)
    p_gen.add_argument("--pairs", type=int, default=0, help="conjugate pair count")
    p_gen.add_argument("--damping-min", type=float, default=0.01)
    p_gen.add_argument("--damping-max", type=float, default=0.3)
    p_gen.add_argument("--freq-min", type=float, default=0.8)
    p_gen.add_argument("--freq-max", type=float, default=4.8)
    p_gen.add_argument("--density", type=float, default=0.1)
    p_gen.add_argument("--residue-floor", type=float, default=1e-6)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--name", default="system")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="compare methods on one system")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--methods", default="dpse,ddpse")
    _add_shift_flags(p_bench)
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_spy = sub.add_parser("spy", help="sparsity summary of the Jacobian")
    p_spy.add_argument("manifest")
    p_spy.add_argument("--coords", default=None, help="write a row,col coordinate CSV")
    p_spy.set_defaults(func=cmd_spy)

    p_map = sub.add_parser("polemap", help="pole-map data from a report")
    p_map.add_argument("report")
    p_map.add_argument("--out", default=None)
    p_map.add_argument("--line-points", type=int, default=25)
    p_map.set_defaults(func=cmd_polemap)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (SolverError, EigenSolverError) as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
