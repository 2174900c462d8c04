"""Command-line front end.

Subcommands: ``spectrum`` (position/momentum/Hamiltonian eigenvalues),
``wavefunction`` (discrete wave tables), ``fourier`` (transform matrix by
either route), ``verify`` (full invariant suite) and ``limits`` (paraboson
comparison table).

Identical flags produce byte-identical text for a fixed BLAS build and
thread count and, for ``verify``, a fixed SUPEROSC_TOL: the number of BLAS
threads can move the last bits of large outputs (``fourier --method
spectral`` from j = 150, ``wavefunction`` at j = 1000, ``limits`` from
about j = 20000). Floats are printed with 17 significant digits (round-trip
safe), nan and inf as null in JSON; complex values become [re, im] pairs
in JSON and paired columns in CSV. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 domain error or an --output that cannot be
written. For ``verify``, the environment variable SUPEROSC_TOL overrides
the default check tolerance; an explicit --tol flag wins over both. Either
must be finite and positive. Each command refuses, before it allocates
anything, a j whose estimated peak memory is over 2 GiB.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

import numpy as np

from .fourier import fourier_analytic, fourier_spectral
from .oscillator import ModelParams, position_spectrum
from .report import _DEFAULT_TOL
from .specfun import _integer
from .suite import DEFAULT_P_LIST, run_suite
from .wavefunctions import momentum_wavefunction, paraboson_limit_table, position_wavefunction

# Largest estimated peak, in bytes, of one command.
_PEAK_BYTES_MAX = 2 * 2**30


def _estimated_peak(args: argparse.Namespace) -> int:
    # Bytes per entry times the entries a command builds or prints, plus
    # 1 MiB that any command may hold at small j. Each figure is a
    # tracemalloc peak at j = 300, printed text included, rounded up.
    # limits' was set 10% over its largest peak per lattice point, at
    # j = 300, 2000, 20000 and 200000 (522 B, p = 1e-30 at j = 300, where
    # every column takes the Sturm count); with the chain heads' abs taken
    # in place, the p = 1e-30 peak from cold caches is 448 B at j = 2000,
    # 410 B at j = 20000 and 408 B at j = 200000. fourier's is 10% over its
    # largest peak, both routes and formats at j = 150, 300 and 600
    # (113.4 B, JSON at j = 150). Verify's is 10% over the largest peak of
    # one sweep point at p = 0.3, cold and warm caches at j = 100, 150 and
    # 200 (116.5 B, cold at j = 100; the oracle forms no eigenvector
    # matrix), rounded to 128 B. It adds 6 MiB for its fixed checks and the
    # two Krawtchouk table caches, up to 2 x 64 tables of (j+1)^2 floats
    # kept from the sweep points before it.
    j = max(args.j_max if args.command == "verify" else args.j, 0)
    dim, table = 2 * j + 1, (j + 1) ** 2  # grid size, polynomial-table entries
    if args.command == "spectrum":
        nbytes = 128 * dim
    elif args.command == "wavefunction":
        nbytes = 32 * table + 160 * len(args.n) * dim
    elif args.command == "limits":
        nbytes = 576 * (j + 1)
    elif args.command == "fourier":
        nbytes = 128 * dim**2
    else:
        nbytes = 6 * 2**20 + 128 * dim**2 + 1024 * table
    return 2**20 + nbytes


def _check_peak(args: argparse.Namespace) -> None:
    # Refuse a command whose estimated peak is over the limit, before it
    # allocates anything.
    nbytes = _estimated_peak(args)
    if nbytes > _PEAK_BYTES_MAX:
        raise ValueError(f"{args.command} would need about {nbytes} bytes, "
                         f"over the {_PEAK_BYTES_MAX}-byte limit")


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _fmt_seq(values, sep: str = ",", item: str = "%.17g") -> str:
    # One %-format for the whole sequence: the same bytes as joining _fmt
    # over it (-0, nan and inf included). ``item`` may hold several fields,
    # e.g. "[%.17g,%.17g]" for complex pairs read from a float64 view.
    values = tuple(values)
    count = len(values) // item.count("%")
    return ((item + sep) * count)[:-len(sep)] % values


def _float_view(array: np.ndarray) -> np.ndarray:
    # Real values as float64; complex ones as interleaved (re, im) float64
    # along the last axis.
    if np.iscomplexobj(array):
        return np.ascontiguousarray(array, dtype=np.complex128).view(np.float64)
    return np.asarray(array, dtype=np.float64)


def _floats(array: np.ndarray) -> list:
    return _float_view(array).tolist()


def _fmt_array(array: np.ndarray) -> np.ndarray:
    # The _fmt text of each float of _float_view(array), as an object array
    # of that shape. Each distinct bit pattern is formatted once (F's mirror
    # blocks and symmetry repeat about four in five of its floats); equal
    # bits give equal text, and 0.0, -0.0 and NaN payloads stay apart.
    floats = _float_view(array)
    bits, inverse = np.unique(floats.view(np.uint64).ravel(), return_inverse=True)
    texts = np.array(_fmt_seq(bits.view(np.float64).tolist(), sep="\n").split("\n"),
                     dtype=object)
    return texts[inverse.ravel()].reshape(floats.shape)


def _nulls(text: str, array: np.ndarray) -> str:
    # JSON has no nan or inf: they print as null (no finite %.17g has n or i).
    return text if np.isfinite(array).all() else re.sub(r"-?(?:nan|inf)", "null", text)


def _json(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value) if math.isfinite(value) else "null"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "fc":
        item = "[%.17g,%.17g]" if value.dtype.kind == "c" else "%.17g"
        return _nulls("[" + _fmt_seq(_floats(value), item=item) + "]", value)
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "fc":
        item = "[%s,%s]" if value.dtype.kind == "c" else "%s"
        return _nulls("[" + ",".join("[" + _fmt_seq(row, item=item) + "]"
                                     for row in _fmt_array(value)) + "]", value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _parse_list(text: str, convert, what: str) -> list:
    # A comma-separated, non-empty list; empty items are skipped.
    try:
        values = [convert(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid {what} list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty {what} list {text!r}")
    return values


def _levels(text: str) -> list[int]:
    return _parse_list(text, int, "level")


def _p_values(text: str) -> tuple[float, ...]:
    return tuple(_parse_list(text, float, "p"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superosc",
        description="Finite oscillator model: spectra, wave functions, "
                    "Fourier matrix, limits and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="eigenvalue grid of an observable")
    spectrum.add_argument("--j", type=int, required=True)
    spectrum.add_argument("--observable", choices=("q", "p", "H"), default="q")
    _common_output_flags(spectrum)

    wave = sub.add_parser("wavefunction", help="discrete wave-function tables")
    wave.add_argument("--j", type=int, required=True)
    wave.add_argument("--p", type=float, required=True)
    wave.add_argument("--n", type=_levels, default=[0],
                      help="comma-separated level list, e.g. 0,1,2,3")
    wave.add_argument("--kind", choices=("position", "momentum"), default="position")
    _common_output_flags(wave)

    fourier = sub.add_parser("fourier", help="discrete Fourier transform matrix")
    fourier.add_argument("--j", type=int, required=True)
    fourier.add_argument("--p", type=float, required=True)
    fourier.add_argument("--method", choices=("analytic", "spectral"), default="analytic")
    _common_output_flags(fourier)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--j-max", type=int, default=10)
    verify.add_argument("--p-list", type=_p_values, default=DEFAULT_P_LIST)
    verify.add_argument("--tol", type=float, default=None)
    _common_output_flags(verify)

    limits = sub.add_parser("limits", help="paraboson limit comparison table")
    limits.add_argument("--j", type=int, required=True)
    limits.add_argument("--p", type=float, required=True)
    limits.add_argument("--alpha", type=float, required=True)
    limits.add_argument("--n", type=int, default=0,
                        help="even-level index: the table covers level 2n")
    _common_output_flags(limits)

    return parser


def _common_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None)


def _csv(fields: dict, columns: str, rows: list[str]) -> str:
    # One CSV block: "# " and the fields as k=v (floats through _fmt, as in
    # the JSON object), the column names, then the rows, formatted by the
    # caller so that no float list outlives its text.
    header = " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in fields.items())
    return "\n".join([f"# {header}", columns, *rows])


def cmd_spectrum(args: argparse.Namespace) -> tuple[int, str]:
    _integer(args.j, "j")
    if args.observable == "H":
        # The Hamiltonian's diagonal 2j - r + 1/2, sorted: exact half-integers.
        values = np.arange(2 * args.j + 1) + 0.5
    else:
        values = position_spectrum(args.j)
    fields = {"j": args.j, "observable": args.observable}
    if args.format == "json":
        return 0, _json({**fields, "values": values})
    return 0, _csv(fields, "value", [_fmt_seq(values.tolist(), sep="\n")])


def _wave_csv(fields: dict, table) -> str:
    complex_amp = np.iscomplexobj(table.amplitudes)
    columns = (table.grid, table.amplitudes.real, table.amplitudes.imag) if complex_amp \
        else (table.grid, table.amplitudes)
    return _csv(fields, "grid,amplitude_re,amplitude_im" if complex_amp else "grid,amplitude_re",
                [_fmt_seq(row) for row in np.column_stack(columns).tolist()])


def cmd_wavefunction(args: argparse.Namespace) -> tuple[int, str]:
    # Each row is read from a Krawtchouk table, with no dense matrix.
    params = ModelParams(args.j, args.p)
    build = position_wavefunction if args.kind == "position" else momentum_wavefunction
    tables = [build(params, n) for n in args.n]
    fields = [{"j": t.j, "p": t.p, "n": t.n, "kind": t.kind, "energy": t.energy} for t in tables]
    if args.format == "json":
        return 0, _json([{**f, "grid": t.grid, "amplitude": t.amplitudes}
                         for f, t in zip(fields, tables)])
    return 0, "\n\n".join([_wave_csv(f, t) for f, t in zip(fields, tables)])


def cmd_fourier(args: argparse.Namespace) -> tuple[int, str]:
    params = ModelParams(args.j, args.p)
    matrix = (fourier_analytic(params) if args.method == "analytic"
              else fourier_spectral(params)).data
    fields = {"j": args.j, "p": args.p, "method": args.method}
    if args.format == "json":
        return 0, _json({**fields, "matrix": matrix})
    return 0, _csv(fields, ",".join(f"c{c}_re,c{c}_im" for c in range(matrix.shape[0])),
                   [",".join(row.tolist()) for row in _fmt_array(matrix)])


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    tol = args.tol
    if tol is None:
        env = os.environ.get("SUPEROSC_TOL")
        try:
            tol = _DEFAULT_TOL if env is None else float(env)
        except ValueError:
            raise ValueError(f"need a finite tol > 0, got SUPEROSC_TOL={env!r}") from None
    report = run_suite(j_max=args.j_max, p_list=args.p_list, tol=tol)
    text = _json(report.to_dict()) if args.format == "json" else "\n".join(report.lines())
    return (0 if report.passed else 1), text


def cmd_limits(args: argparse.Namespace) -> tuple[int, str]:
    # Each row reads the first grid_count + 1 columns of the dual Hahn and
    # Krawtchouk tables, (j+1) x 16 at most: O(j) time and memory.
    grid_count = min(15, args.j)
    rows = paraboson_limit_table(args.j, args.p, args.alpha, args.n, grid_count)
    fields = {"j": args.j, "p": args.p, "alpha": args.alpha, "n": args.n}
    if args.format == "json":
        return 0, _json({**fields, "rows": rows})
    return 0, _csv(fields, "x,discrete,continuum,limit_gap",
                   [_fmt_seq(row) for row in rows.tolist()])


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "fourier": cmd_fourier,
    "verify": cmd_verify,
    "limits": cmd_limits,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        _check_peak(args)
        code, text = _COMMANDS[args.command](args)
        # The one place that picks the destination and ends the text. It
        # opens after the command ran, so a refused command creates no file.
        with open(args.output, "w", encoding="utf-8") if args.output \
                else contextlib.nullcontext(sys.stdout) as out:
            print(text, file=out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code
