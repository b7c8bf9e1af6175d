"""Command-line front end.

Subcommands: classify, build, verify, unitary, spectrum, enumerate, sl2.
All structured output is JSON on stdout; exit code 0 on success or a
verified module, 1 on verification failure, 2 on usage errors, 141
(128 + SIGPIPE) when the reader closes stdout early.  Each subcommand
imports only the modules it calls, so that a process pays for its own work
and not for loading the whole package.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .errors import Su21Error


def _params_from_args(args):
    from .coefficients import ConeParams, VertexParams
    from .scalars import parse_scalar

    has_cone = args.c is not None or args.t is not None
    has_vertex = getattr(args, "r", None) is not None or getattr(args, "s", None) is not None
    if has_cone and has_vertex:
        raise Su21Error("give either --c/--t or --r/--s, not both")
    if has_cone:
        if args.c is None or args.t is None:
            raise Su21Error("cone parameters need both --c and --t")
        return ConeParams(parse_scalar(args.c), args.t)
    if has_vertex:
        if args.r is None or args.s is None:
            raise Su21Error("vertex parameters need both --r and --s")
        return VertexParams(args.r, args.s)
    raise Su21Error("no parameters given; use --c/--t or --r/--s")


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--c", help="cone parameter, e.g. -1/2 or 1+1*i")
    parser.add_argument("--t", type=int, help="cone parameter t (module label carries 2t)")
    parser.add_argument("--r", type=int, help="vertex dimension r > 1")
    parser.add_argument("--s", type=int, help="vertex eigenvalue s, r + s odd")


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_classify(args) -> int:
    from .dual import classify

    record = classify(_params_from_args(args))
    _emit(record.to_json())
    return 0


def _cmd_build(args) -> int:
    from .builder import build, module_to_json_str
    from .unitarity import build_norms, is_unitary

    params = _params_from_args(args)
    mod = build(params, args.max_n)
    norms = None
    if is_unitary(params, mod.region, max_n=args.max_n).is_unitary:
        norms = build_norms(mod)
    text = module_to_json_str(mod, norms=norms)
    Path(args.out).write_text(text, encoding="utf-8")
    _emit({"written": args.out, "basis_size": len(mod.basis), "max_n": mod.max_n})
    return 0


def _cmd_verify(args) -> int:
    from .builder import _parse_document
    from .verify import check_coefficient_relations, check_commutators

    mod, doc = _parse_document(Path(args.path).read_text(encoding="utf-8"))
    if "norms" in doc:
        from .unitarity import build_norms

        if doc["norms"] != build_norms(mod).to_json():
            raise Su21Error("the stored norms differ from the invariant form of the module")
    report = check_commutators(mod)
    report = report.merge(
        check_coefficient_relations(mod.params, mod.max_n, mod.region)
    )
    _emit(report.to_json())
    return 0 if report.verified else 1


def _cmd_unitary(args) -> int:
    from .unitarity import is_unitary

    params = _params_from_args(args)
    verdict = is_unitary(params, max_n=args.max_n)
    _emit(verdict.to_json())
    return 0


def _spectrum_text(members) -> str:
    if not members:
        return ""
    m_lo = min(v.m for v in members)
    m_hi = max(v.m for v in members)
    n_hi = max(v.n for v in members)
    occupied = {(v.n, v.m) for v in members}
    lines = []
    for n in range(n_hi, 0, -1):
        cells = "".join(
            "●" if (n, m) in occupied else " " for m in range(m_lo, m_hi + 1)
        )
        lines.append(f"n={n:>3} |{cells}".rstrip())
    lines.append(f"      +{'-' * (m_hi - m_lo + 1)}")
    labels = " " * 7
    lines.append(f"{labels}m={m_lo}..{m_hi}")
    return "\n".join(lines) + "\n"


def _spectrum_svg(region, members) -> str:
    scale, radius, pad = 12, 4, 20
    if not members:
        return '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="40" height="40"/>\n'
    m_lo = min(v.m for v in members)
    m_hi = max(v.m for v in members)
    n_hi = max(v.n for v in members)
    width = (m_hi - m_lo) * scale + 2 * pad
    height = n_hi * scale + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">'
    ]
    for v in members:
        x = pad + (v.m - m_lo) * scale
        y = height - pad - v.n * scale
        coord = region.coord_of(v)
        boundary = (
            coord.p == 0
            or coord.q == 0
            or coord.p == region.p_max
            or coord.q == region.q_max
        )
        fill = "#d62728" if boundary else "#1f77b4"
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{fill}">'
            f"<title>V({v.n},{v.m})</title></circle>"
        )
    parts.append(
        f'<text x="{pad}" y="{height - 4}" font-size="10">m: {m_lo}..{m_hi}, '
        f"n: 1..{n_hi}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_spectrum(args) -> int:
    from .dual import classify, normalize_label, parse_label

    family = normalize_label(args.family)
    region = classify(parse_label(family)).support
    members = region.members(args.max_n)
    if args.format == "json":
        _emit(
            {
                "family": family,
                "max_n": args.max_n,
                "ktypes": [[v.n, v.m] for v in members],
            }
        )
    elif args.format == "text":
        sys.stdout.write(_spectrum_text(members))
    else:
        sys.stdout.write(_spectrum_svg(region, members))
    return 0


def _cmd_enumerate(args) -> int:
    from .dual import enumerate_dual

    records = enumerate_dual(args.t_max, args.r_max)
    _emit([rec.to_json() for rec in records])
    return 0


def _cmd_sl2(args) -> int:
    from .scalars import parse_scalar
    from .sl2 import Parity, Sl2Params, sl2_classify

    params = Sl2Params(parse_scalar(args.lam), Parity(args.parity))
    _emit(sl2_classify(params).to_json())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su21dual",
        description="Exact truncated modules for SU(2,1) and their unitary dual",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a parameter point")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build", help="build a truncated module and write JSON")
    _add_param_flags(p)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="re-verify a serialized module")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("unitary", help="decide unitarity of a parameter point")
    _add_param_flags(p)
    p.add_argument("--max-n", type=int, default=30, dest="max_n")
    p.set_defaults(func=_cmd_unitary)

    p = sub.add_parser("spectrum", help="list the K-types of a family")
    p.add_argument("--family", required=True, help='label, e.g. "W(4,3)" or "U(2)"')
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--format", choices=("json", "text", "svg"), default="json")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("enumerate", help="list the unitary dual within bounds")
    p.add_argument("--t-max", type=int, required=True, dest="t_max")
    p.add_argument("--r-max", type=int, required=True, dest="r_max")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sl2", help="rank-one baseline")
    sl2_sub = p.add_subparsers(dest="sl2_command", required=True)
    pc = sl2_sub.add_parser("classify")
    pc.add_argument("--lambda", required=True, dest="lam", help="e.g. 3/2*i or 1/2")
    pc.add_argument("--parity", required=True, choices=("even", "odd"))
    pc.set_defaults(func=_cmd_sl2)

    return parser


_SCALAR_FLAGS = ("--c", "--lambda")


def _merge_scalar_flags(argv: list[str]) -> list[str]:
    """Join "--c -1/2" into "--c=-1/2" so argparse does not read the value,
    which may start with a minus sign, as another option."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _SCALAR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_scalar_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # A subcommand makes few reference cycles, and the collector's passes
    # over the module it holds cost far more than they free: pause the
    # collector while it runs, and leave the caller's setting as it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout: exit 141 (128 + SIGPIPE) as a process
        # killed by SIGPIPE does, and send the final flush to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (Su21Error, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
