"""Command-line front end: prints characters in the qtc v1 text format
or as DOT graphs, and runs the identity verifiers.

Exit status: 0 on success or a passing verification, 1 on a failing
verification, 2 on usage errors, including an --out or --cache-dir path
that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .character import DrinfeldPoly, QtCharacter, dumps_qtc
from .engine import Engine
from .errors import DomainError, NotInRootLattice, ParseError, UnsupportedType, _parse_int
from .monomial import a_monomial
from .roots import build_lie_type
from .tpoly import CONVENTIONS
from . import kernels, systems

_TYPE_RE = re.compile(r"^([ADE])(\d+)$")
_P_FRAG_RE = re.compile(r"^(\d+):(-?\d+(?:,-?\d+)*)$")
_NU_FRAG_RE = re.compile(r"^(\d+):(\d+)=(\d+)$")


def _lie_type(text: str):
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise DomainError(f"bad --type {text!r}; expected family+rank like A2 or D4")
    return build_lie_type(m.group(1), _parse_int(m.group(2)))


def _parse_p(frags) -> DrinfeldPoly:
    roots = []
    for frag in frags or ():
        m = _P_FRAG_RE.match(frag)
        if not m:
            raise DomainError(f"bad --p fragment {frag!r}; expected i:s1,s2,...")
        i = _parse_int(m.group(1))
        roots.extend((i, _parse_int(s)) for s in m.group(2).split(","))
    return DrinfeldPoly(roots)


def _parse_nu(frags) -> dict:
    nu: dict = {}
    for frag in frags or ():
        m = _NU_FRAG_RE.match(frag)
        if not m:
            raise DomainError(f"bad --nu fragment {frag!r}; expected i:k=v")
        i, k, v = (_parse_int(x) for x in m.groups())
        nu[(i, k)] = nu.get((i, k), 0) + v
    return nu


def export_dot(ch: QtCharacter) -> str:
    """DOT digraph with one node per monomial (label: monomial and its
    coefficient) and an edge m1 -> m2 labelled (i,s) whenever m2 is m1
    times the inverse affinization monomial at (i,s).  Each monomial is
    probed only at its A(i,s)^-1 neighbours, looked up by data."""
    monos = [m for m, _ in ch.items()]
    index = {m.data: n for n, m in enumerate(monos)}
    lines = ["digraph qtchar {"]
    for n, m in enumerate(monos):
        lines.append(f'  n{n} [label="{m} : {ch.terms[m]}"];')
    lo = min((m.min_s() for m in monos if m.data), default=0)
    hi = max((m.max_s() for m in monos if m.data), default=0)
    steps = [
        ((a_monomial(ch.L, i, s) ** -1).data, (i, s))
        for i in ch.L.nodes
        for s in range(lo - 1, hi + 2)
    ]
    edges = []
    for n, m in enumerate(monos):
        for q, hit in steps:
            b = index.get(kernels.mono_mul(m.data, q))
            if b is not None:
                edges.append((n, b, hit))
    for a, b, (i, s) in sorted(edges):
        lines.append(f'  n{a} -> n{b} [label="({i},{s})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qtc",
        description="t-analog q-characters: compute, export, and verify identities",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, help_txt, node=False, k=False, shift=False, poly=False, char_out=False):
        sp = sub.add_parser(name, help=help_txt)
        sp.add_argument("--type", required=True, help="family+rank, e.g. A2, D4")
        if node:
            sp.add_argument("--node", type=int, required=True, help="Dynkin node index (1-based)")
        if k:
            sp.add_argument("--k", type=int, required=True, help="string length / recursion index")
        if shift:
            sp.add_argument("--shift", type=int, default=0, help="spectral shift (default 0)")
        if poly:
            sp.add_argument(
                "--p",
                action="append",
                metavar="i:s1,s2,...",
                help="spectral roots at node i; repeatable",
            )
        if char_out:
            sp.add_argument("--dot", action="store_true", help="emit a DOT graph instead of qtc text")
        sp.add_argument("--cache-dir", default=None, help="character cache directory")
        sp.add_argument("--out", default=None, help="write output to this file instead of stdout")
        return sp

    add("fund", "single-root character", node=True, shift=True, char_out=True)
    add("kr", "string-module character", node=True, k=True, shift=True, char_out=True)
    add("standard", "product-module character", poly=True, char_out=True)
    add("simple", "simple-module character", poly=True, char_out=True)
    add("graph", "DOT graph of a product-module character", poly=True)

    tsys = add("tsys", "verify the KR tensor recursion", node=True, k=True)
    tsys.add_argument("--t-analog", action="store_true", help="check the t-refined identity")
    add("qsys", "verify the finite-type recursion", node=True, k=True)

    conv = add("converge", "verify truncated stabilization", node=True, k=True)
    conv.add_argument("--truncate", type=int, required=True, help="depth bound D")

    ferm = sub.add_parser("fermionic", help="binomial configuration sum")
    ferm.add_argument("--type", required=True)
    ferm.add_argument("--nu", action="append", metavar="i:k=v", help="string counts; repeatable")
    ferm.add_argument("--truncate", type=int, required=True, help="total degree bound D")
    conv_help = f"binomial convention (default {CONVENTIONS[0]}, the only one --verify checks)"
    ferm.add_argument("--convention", choices=CONVENTIONS, default=CONVENTIONS[0], help=conv_help)
    ferm.add_argument("--verify", action="store_true", help="compare against the character product")
    ferm.add_argument("--cache-dir", default=None)
    ferm.add_argument("--out", default=None)
    return top


def _resolve_cache_dir(flag_value):
    if flag_value:
        return flag_value
    env = os.environ.get("QTC_CACHE")
    if env:
        return env
    return os.path.join(os.getcwd(), "qtc-cache")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_char(ch: QtCharacter, args) -> int:
    if getattr(args, "dot", False):
        _emit(export_dot(ch), args.out)
    else:
        _emit(dumps_qtc(ch), args.out)
    return 0


def _emit_report(rep, args) -> int:
    _emit(rep.text() + "\n", args.out)
    return 0 if rep.ok else 1


def _dispatch(args) -> int:
    L = _lie_type(args.type)
    if args.verb == "fermionic" and args.verify and args.convention != CONVENTIONS[0]:
        # verify_kr_formula checks the default convention's sum alone
        raise DomainError(f"--verify checks the {CONVENTIONS[0]} convention only, not {args.convention}")
    if args.verb == "fermionic" and not args.verify:
        # the configuration sum reads no character, so it needs no engine
        rhs = systems.fermionic_rhs(L, _parse_nu(args.nu), args.truncate, args.convention)
        by_degree = [0] * (args.truncate + 1)
        for key, c in rhs.items():
            by_degree[sum(key)] += c
        _emit(" ".join(str(c) for c in by_degree) + "\n", args.out)
        return 0
    eng = Engine(L, cache_dir=_resolve_cache_dir(args.cache_dir))

    if args.verb == "fund":
        return _emit_char(eng.fundamental_char(args.node, args.shift), args)
    if args.verb == "kr":
        return _emit_char(eng.kr_char_direct(args.node, args.k, args.shift), args)
    if args.verb == "standard":
        return _emit_char(eng.standard_char(_parse_p(args.p)), args)
    if args.verb == "simple":
        return _emit_char(eng.simple_char(_parse_p(args.p)), args)
    if args.verb == "graph":
        _emit(export_dot(eng.standard_char(_parse_p(args.p))), args.out)
        return 0
    if args.verb == "tsys":
        if args.t_analog:
            rep = systems.verify_t_system_t(L, args.node, args.k, eng)
        else:
            rep = systems.verify_t_system_t1(L, args.node, args.k, eng)
        return _emit_report(rep, args)
    if args.verb == "qsys":
        return _emit_report(systems.verify_q_system(L, args.node, args.k, eng), args)
    if args.verb == "converge":
        rep = systems.verify_convergence(L, args.node, args.k, args.truncate, eng)
        return _emit_report(rep, args)
    if args.verb == "fermionic":
        rep = systems.verify_kr_formula(L, _parse_nu(args.nu), args.truncate, eng)
        return _emit_report(rep, args)
    raise DomainError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return _dispatch(args)
    except (DomainError, ParseError, NotInRootLattice, UnsupportedType, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
