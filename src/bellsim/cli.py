"""Command-line front end.

Subcommands::

    chsh-sim     simulate a four-setting run and analyze S
    lhv-sim      correlation of a hidden-variable model at one settings pair
    wigner-scan  margin of the three-angle inequality over a theta2 grid
    enumerate    the 16 outcome quartets (or 8 sextets)
    analyze      ingest a trial CSV and recompute the S analysis
    maximize     search analyzer angles for the largest |S|

``bellsim --version`` prints the package version.
Angles are degrees on the command line and radians everywhere inside.
Exit codes: 0 success, 2 usage or validation error, 1 runtime failure.
The library raises its input errors as ``bellsim.UsageError``, a
``ValueError``, the seed bound included; this module adds only the
checks the library cannot make, and maps exactly that class to exit 2.
The default seed is 0, overridable with --seed; no environment variable
changes a run.

File formats (stable):

* Trial CSV: first line ``# angles_deg: delta=<f>,delta_prime=<f>,
  gamma=<f>,gamma_prime=<f>``, then a ``pair,outcome_d,outcome_g``
  header, then one row per trial with pair in {dg, dg', d'g, d'g'} and
  outcomes written +1/-1.  UTF-8, LF line endings.  The reader also
  takes CRLF and lone CR.  It reads the file in byte chunks of whole
  lines, recognises the 16 canonical body rows by byte-column compares and
  parses the other lines (blank, lenient, malformed) one by one.
* Report JSON: flat object {name, s_mean, s_std_error, per_pair,
  bound, violated_2sigma, violated_5sigma, seed, source}.
* Scan CSV: header ``theta2_deg,lhs,rhs,margin``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__, _kernels, harness, inequalities, lhv, qstate
from .harness import PAIR_LABELS
from .lhv import UsageError

__all__ = ["main", "entry_point"]

TRIAL_CSV_COLUMNS = "pair,outcome_d,outcome_g"

_ANGLE_HEADER_RE = re.compile(
    r"^# angles_deg: delta=([^,]+),delta_prime=([^,]+),"
    r"gamma=([^,]+),gamma_prime=([^,]+)$"
)


def _radians(flag: str, degrees: float) -> float:
    if not math.isfinite(degrees):
        raise UsageError(f"{flag} must be finite")
    return math.radians(degrees)


def _parse_angles_deg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            "expected four comma-separated angles: delta,delta_prime,gamma,gamma_prime"
        )
    try:
        angles = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"angles must be numeric, got {text!r}") from None
    if not all(math.isfinite(a) for a in angles):
        raise UsageError("angles must be finite")
    return angles


def _lhv_model(name: str) -> lhv.LhvModel:
    try:
        return lhv.get_model(name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _report_dict(analysis, seed, source: str) -> dict:
    return {
        "name": "chsh_d4",
        "s_mean": analysis.s_mean,
        "s_std_error": analysis.s_std_error,
        "per_pair": [
            {"pair": p.label, "E": p.e, "std_error": p.std_error, "n": p.n}
            for p in analysis.per_pair
        ],
        "bound": 2.0,
        "violated_2sigma": analysis.violated_2sigma,
        "violated_5sigma": analysis.violated_5sigma,
        "seed": seed,
        "source": source,
    }


def _print_analysis(analysis, source: str) -> None:
    print(f"source: {source}")
    for p in analysis.per_pair:
        print(f"  E({p.label}) = {p.e:+.6f} +- {p.std_error:.6f}  (n={p.n})")
    print(
        f"S = {analysis.s_mean:+.6f} +- {analysis.s_std_error:.6f}  (bound 2)"
    )
    print(
        f"violated at 2 sigma: {analysis.violated_2sigma}, "
        f"at 5 sigma: {analysis.violated_5sigma}"
    )


# every possible trial CSV body row, indexed by its row code (_kernels.row_code)
_TRIAL_ROWS = tuple(
    f"{PAIR_LABELS[code >> 2]},{d:+d},{g:+d}"
    for code, d, g in zip(range(16), *_kernels.trial_outcomes(np.arange(16)))
)
_TRIAL_ROW_CODES = {row: code for code, row in enumerate(_TRIAL_ROWS)}


def write_trials_csv(path: str, log: harness.TrialLog, angles_deg) -> None:
    """Write a log as a trial CSV; a non-finite angle raises ValueError, and
    a row code outside the 16 rows of the four pair labels IndexError."""
    # a numpy float's repr is "np.float64(...)", which no reader parses
    angles = tuple(float(a) for a in angles_deg)
    if not all(math.isfinite(a) for a in angles):
        raise ValueError("angles must be finite")
    delta, delta_prime, gamma, gamma_prime = angles
    rows = np.array([row + "\n" for row in _TRIAL_ROWS], dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# angles_deg: delta={delta!r},delta_prime={delta_prime!r},"
            f"gamma={gamma!r},gamma_prime={gamma_prime!r}\n{TRIAL_CSV_COLUMNS}\n"
        )
        # a chunk of rows at a time: no list or text of the whole body
        for start in range(0, len(log), _kernels._CHUNK):
            fh.write("".join(rows[log.code[start : start + _kernels._CHUNK]].tolist()))


def _parse_trial_row(line: str, number: int):
    """Row code of one trial CSV body line (None for a blank line), or a
    UsageError citing its physical line number."""
    if not line:
        return None
    parts = line.split(",")
    if len(parts) != 3:
        raise UsageError(f"line {number}: expected 3 comma-separated fields")
    label, d_text, g_text = parts
    if label not in PAIR_LABELS:
        raise UsageError(
            f"line {number}: unknown pair label {label!r} "
            f"(expected one of {', '.join(PAIR_LABELS)})"
        )
    try:
        row = f"{label},{int(d_text):+d},{int(g_text):+d}"
    except ValueError:
        row = None
    if row not in _TRIAL_ROW_CODES:
        raise UsageError(f"line {number}: outcome must be +1 or -1")
    return _TRIAL_ROW_CODES[row]


def _canonical_row_codes(buf, starts, ends):
    """Row code of each line ``buf[starts[i]:ends[i]]``, and whether the
    line is the canonical body row of that code (``_TRIAL_ROWS``).

    A canonical row is ``d[']g['],S1,S1`` with each S a sign byte: the
    primes at ``start + 1`` and ``end - 7`` name the pair and fix the
    length (8 to 10 bytes), the signs at ``end - 5`` and ``end - 2`` are
    the outcomes, and every other byte is fixed.
    """

    def column(offsets):
        # a short line may point outside the file; its length check fails
        return np.take(buf, offsets, mode="clip")

    primed_d = column(starts + 1) == ord("'")
    primed_g = column(ends - 7) == ord("'")
    sign_d = column(ends - 5)
    sign_g = column(ends - 2)
    minus_d = sign_d == ord("-")
    minus_g = sign_g == ord("-")
    canonical = ends - starts == 8 + primed_d.view(np.uint8) + primed_g
    canonical &= column(starts) == ord("d")
    canonical &= column(starts + 1 + primed_d) == ord("g")
    for offset, byte in ((6, ","), (4, "1"), (3, ","), (1, "1")):
        canonical &= column(ends - offset) == ord(byte)
    canonical &= (minus_d | (sign_d == ord("+"))) & (minus_g | (sign_g == ord("+")))
    # PAIR_LABELS lists the pairs as 2 * (d primed) + (g primed)
    pair = 2 * primed_d.view(np.uint8) + primed_g
    return _kernels.row_code(pair, minus_d, minus_g), canonical


_READ_CHUNK = 1 << 20  # bytes read from a trial CSV at a time


def _utf8_pieces(fh):
    """A file's bytes in pieces that end after a line break (never inside a
    "\r\n") or at its end.  A non-UTF-8 piece raises UsageError with the
    decoder's message, its positions counted from the start of the file."""
    offset, carry, data = 0, b"", True
    while data:
        data = fh.read(_READ_CHUNK)
        buf = carry + data
        # a "\r" that ends what was read may be the first half of a "\r\n"
        end = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
        piece, carry = (buf[:end], buf[end:]) if data else (buf, b"")
        try:
            piece.isascii() or piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            at = re.sub(r"\d+(?=[-:])", lambda m: str(offset + int(m[0])), str(exc))
            raise UsageError(f"input is not UTF-8 text: {at}") from None
        offset += len(piece)
        if piece:
            yield piece


def _header_angles(lines):
    """The header angles, in degrees, of a trial CSV's first two lines."""
    if not lines:
        raise UsageError("line 1: missing angles header")
    match = _ANGLE_HEADER_RE.match(lines[0].decode("utf-8"))
    if match is None:
        raise UsageError(
            "line 1: expected '# angles_deg: delta=...,delta_prime=...,"
            "gamma=...,gamma_prime=...'"
        )
    try:
        angles = tuple(float(v) for v in match.groups())
    except ValueError:
        raise UsageError("line 1: angles must be numeric") from None
    if not all(math.isfinite(a) for a in angles):
        raise UsageError("line 1: angles must be finite")
    if len(lines) < 2 or lines[1] != TRIAL_CSV_COLUMNS.encode():
        raise UsageError(f"line 2: expected header {TRIAL_CSV_COLUMNS!r}")
    return angles


def _parse_trial_lines(pieces):
    """The header angles and the row codes of a trial CSV's pieces."""
    header, angles, number, code = [], None, 0, np.empty(0, dtype=np.uint8)
    for piece in pieces:
        piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        buf = np.frombuffer(piece, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        if not piece.endswith(b"\n"):  # a last line without its newline
            ends = np.append(ends, len(piece))
        starts = np.append(0, ends[:-1] + 1)
        skip = min(2 - len(header), len(ends))  # header lines in the piece
        header += [piece[a:b] for a, b in zip(starts[:skip], ends[:skip])]
        if angles is None and len(header) == 2:
            angles = _header_angles(header)
        starts, ends = starts[skip:], ends[skip:]
        chunk, canonical = _canonical_row_codes(buf, starts, ends)
        # rows that are not canonical, in file order; a blank one has no code
        for i in np.flatnonzero(~canonical).tolist():
            line = piece[starts[i] : ends[i]].decode("utf-8")
            row = _parse_trial_row(line, number + skip + i + 1)
            chunk[i] = len(_TRIAL_ROWS) if row is None else row
        number += skip + len(ends)  # the lines read so far
        chunk = chunk[chunk < len(_TRIAL_ROWS)]
        # grown in place (no view of it outlives a statement): no second copy
        code.resize(len(code) + len(chunk), refcheck=False)
        code[len(code) - len(chunk) :] = chunk
    return angles or _header_angles(header), code


def read_trials_csv(path: str) -> harness.TrialLog:
    """Parse a trial CSV, ``_READ_CHUNK`` bytes at a time; malformed content
    raises UsageError citing the physical 1-based line number.  As in text
    mode, "\r\n" and a lone "\r" end a line like "\n"; no other character does."""
    with open(path, "rb") as fh:
        pieces = _utf8_pieces(fh)
        try:
            angles, code = _parse_trial_lines(pieces)
        except UsageError:
            for _ in pieces:  # a non-UTF-8 byte anywhere is reported first
                pass
            raise
    if not len(code):
        raise UsageError("no trial rows found")
    schedule = harness.chsh_schedule(*(math.radians(a) for a in angles))
    return harness.TrialLog(schedule.pairs, code, f"file:{path}")


def _analyze(log: harness.TrialLog, seed, out) -> int:
    """Print the S analysis of a log and write its report JSON to ``out``.

    A settings pair without trials (too few --trials, or a trial CSV that
    lacks the pair) is a usage error, raised by the analysis.
    """
    analysis = harness.analyze_chsh(harness.tabulate(log))
    if out:
        report = _report_dict(analysis, seed, log.source_description)
        _write_text(out, json.dumps(report, indent=2) + "\n")
    _print_analysis(analysis, log.source_description)
    return 0


# --- subcommands -------------------------------------------------------------


def cmd_chsh_sim(args) -> int:
    kind = None if args.state is None else qstate.StateKind(args.state)
    if args.angles is not None:
        angles_deg = _parse_angles_deg(args.angles)
    else:
        # the singlet's optimum, halved for photons, whose correlations have
        # half the spin period: at the spin angles every photon E is 0
        scale = 1.0 if kind is None else 0.5 / kind.particle.angle_scale
        angles_deg = tuple(
            scale * math.degrees(a) for a in harness.SINGLET_CHSH_ANGLES
        )
    if kind is not None:
        source = qstate.make_state(kind)
    else:
        source = _lhv_model(args.model)
    rad = tuple(math.radians(a) for a in angles_deg)
    schedule = harness.chsh_schedule(*rad)
    log = harness.run_trials(source, schedule, args.trials, args.seed)
    if args.emit_trials:
        write_trials_csv(args.emit_trials, log, angles_deg)
    return _analyze(log, args.seed, args.out)


def cmd_lhv_sim(args) -> int:
    model = _lhv_model(args.model)
    delta = _radians("--delta", args.delta)
    gamma = _radians("--gamma", args.gamma)
    # quadrature first: a bad --nodes stops the run before any draw or print
    quad = None
    if model.support is not None:
        quad = lhv.quadrature_correlation(model, delta, gamma, args.nodes)
    estimate = lhv.estimate_correlation(model, delta, gamma, args.trials, args.seed)
    result = {
        "model": model.name,
        "delta_deg": args.delta,
        "gamma_deg": args.gamma,
        "mc_mean": estimate.e,
        "mc_std_error": estimate.std_error,
        "n": estimate.n,
        "seed": args.seed,
    }
    print(
        f"{model.name}: E({args.delta} deg, {args.gamma} deg) = "
        f"{estimate.e:+.6f} +- {estimate.std_error:.6f}  (n={estimate.n})"
    )
    if quad is not None:
        result["quadrature"] = quad
        result["nodes"] = args.nodes
        print(f"quadrature ({args.nodes} nodes): {quad:+.6f}")
    if args.out:
        _write_text(args.out, json.dumps(result, indent=2) + "\n")
    return 0


def cmd_wigner_scan(args) -> int:
    kind = qstate.StateKind(args.state)
    theta3 = args.theta3
    if theta3 is None:
        # 90 degrees for spin, 45 for photons, whose correlations have half
        # the spin period: a photon scan to 90 would read 0 on every row
        theta3 = 45.0 / kind.particle.angle_scale
    theta1 = _radians("--theta1", args.theta1)
    points = harness.wigner_scan(theta1, _radians("--theta3", theta3), args.steps, kind)
    lines = ["theta2_deg,lhs,rhs,margin"]
    lines.extend(
        f"{math.degrees(p.theta2)!r},{p.lhs!r},{p.rhs!r},{p.margin!r}"
        for p in points
    )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        violations = sum(p.margin > inequalities.VIOLATION_TOLERANCE for p in points)
        print(f"wrote {len(points)} rows to {args.out} ({violations} violations)")
    else:
        sys.stdout.write(text)
    return 0


def _signed(values) -> str:
    return ",".join(f"{v:+d}" for v in values)


def cmd_enumerate(args) -> int:
    # one (column names, rows, JSON payload) triple per kind, shared by
    # the three formats
    if args.sextets:
        sextets = inequalities.enumerate_sextets(qstate.CorrelationSign(args.sign))
        names = [f"{wing}_theta{j}" for wing in "dg" for j in (1, 2, 3)]
        rows = [(*s.d, *s.g) for s in sextets]
        payload = [
            {"d": list(s.d), "g": list(s.g), "sign": s.sign.value} for s in sextets
        ]
    else:
        names = ["d_delta", "g_gamma", "d_delta_prime", "g_gamma_prime", "S"]
        rows = [
            (q.d_delta, q.g_gamma, q.d_delta_prime, q.g_gamma_prime, q.s_value)
            for q in inequalities.enumerate_quartets()
        ]
        payload = [dict(zip(names, row)) for row in rows]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        header, lines = names, [_signed(row) for row in rows]
        if not args.sextets:  # quartets are numbered from 1
            header = ["quartet", *names]
            lines = [f"{i},{line}" for i, line in enumerate(lines, start=1)]
        print(",".join(header))
        print("\n".join(lines))
    else:
        for name, column in zip(names, zip(*rows)):
            print(f"{name}: {_signed(column)}")
    return 0


def cmd_analyze(args) -> int:
    return _analyze(read_trials_csv(args.input), None, args.out)


def cmd_maximize(args) -> int:
    kind = qstate.StateKind(args.state)
    angles, s_star = harness.maximize_chsh(kind, coarse_step_deg=args.coarse_step)
    angles_deg = [math.degrees(a) for a in angles]
    labels = ("delta", "delta_prime", "gamma", "gamma_prime")
    for label, value in zip(labels, angles_deg):
        print(f"{label} = {value:.6f} deg")
    print(f"s_star = {s_star:.9f}")
    if args.out:
        payload = {
            "state": kind.value,
            "angles_deg": dict(zip(labels, angles_deg)),
            "s_star": s_star,
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Simulate and analyze two-particle correlation experiments.",
        epilog="Angles are degrees. Default seed: 0. "
        "Exit codes: 0 ok, 2 usage error, 1 runtime failure.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state_names = sorted(kind.value for kind in qstate.StateKind)
    sign_names = [sign.value for sign in qstate.CorrelationSign]

    p = sub.add_parser("chsh-sim", help="simulate a four-setting run")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", choices=state_names, help="entangled state source")
    group.add_argument("--model", help="hidden-variable model source")
    p.add_argument(
        "--angles",
        help="delta,delta_prime,gamma,gamma_prime in degrees "
        "(default: 0,-90,135,-135; 0,-45,67.5,-67.5 for photon states)",
    )
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-trials", metavar="PATH", help="write the trial CSV")
    p.add_argument("--out", metavar="PATH", help="write the report JSON")
    p.set_defaults(func=cmd_chsh_sim)

    p = sub.add_parser("lhv-sim", help="single-pair correlation of an LHV model")
    p.add_argument("--model", required=True)
    p.add_argument("--delta", type=float, default=0.0, help="degrees")
    p.add_argument("--gamma", type=float, default=0.0, help="degrees")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_lhv_sim)

    p = sub.add_parser("wigner-scan", help="three-angle inequality margins")
    p.add_argument("--theta1", type=float, default=0.0, help="degrees")
    p.add_argument("--theta3", type=float, help="degrees (default: 90 spin, 45 photon)")
    p.add_argument("--steps", type=int, default=19)
    p.add_argument(
        "--state", choices=state_names, default="spin-anticorrelated"
    )
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_wigner_scan)

    p = sub.add_parser("enumerate", help="outcome quartets or sextets")
    p.add_argument("--sextets", action="store_true")
    p.add_argument("--sign", choices=sign_names, default="anticorrelated")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("analyze", help="analyze a trial CSV")
    p.add_argument("input", help="trial CSV path")
    p.add_argument("--out", metavar="PATH", help="write the report JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("maximize", help="search angles for the largest |S|")
    p.add_argument("--state", choices=state_names, default="spin-anticorrelated")
    p.add_argument("--coarse-step", type=float, default=15.0, help="degrees, 0.5 to 15")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_maximize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
