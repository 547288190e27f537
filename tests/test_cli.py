from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

import qtchar
from qtchar import DrinfeldPoly, Engine, build_lie_type, loads_qtc, parse_monomial
from qtchar.monomial import a_monomial
from qtchar.cli import _resolve_cache_dir, export_dot, main
from qtchar.systems import VerifyReport


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_fund_prints_qtc(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "fund", "--type", "A2", "--node", "1", "--cache-dir", str(tmp_path)
    )
    assert rc == 0 and not err
    assert out.splitlines() == [
        "# qtc v1",
        "type A 2",
        "P 1: 0",
        "term 1 : Y[1,0]",
        "term 1 : Y[1,2]^-1 Y[2,1]",
        "term 1 : Y[2,3]^-1",
    ]
    # printed text is machine-readable
    assert loads_qtc(out).dimension() == 3


def test_output_is_deterministic(capsys, tmp_path):
    args = ("kr", "--type", "A2", "--node", "1", "--k", "3", "--cache-dir", str(tmp_path))
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_kr_shift_moves_roots(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys,
        *("kr", "--type", "A1", "--node", "1", "--k", "2", "--shift", "2"),
        "--cache-dir",
        str(tmp_path),
    )
    assert rc == 0
    assert "P 1: 2 4" in out.splitlines()


def test_standard_and_simple_verbs(capsys, tmp_path):
    base = ("--type", "A2", "--p", "1:0,2", "--cache-dir", str(tmp_path))
    rc, st_text, _ = run_cli(capsys, "standard", *base)
    assert rc == 0
    rc, si_text, _ = run_cli(capsys, "simple", *base)
    assert rc == 0
    st, si = loads_qtc(st_text), loads_qtc(si_text)
    assert st.poly == si.poly
    assert len(st) == 9 and len(si) == 6
    assert si.coeff(parse_monomial("Y[2,1]")) == 0


def test_graph_three_node_chain(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, "graph", "--type", "A2", "--p", "1:0", "--cache-dir", str(tmp_path)
    )
    assert rc == 0
    assert out == (
        "digraph qtchar {\n"
        '  n0 [label="Y[1,0] : 1"];\n'
        '  n1 [label="Y[1,2]^-1 Y[2,1] : 1"];\n'
        '  n2 [label="Y[2,3]^-1 : 1"];\n'
        '  n0 -> n1 [label="(1,1)"];\n'
        '  n1 -> n2 [label="(2,2)"];\n'
        "}\n"
    )


def test_graph_nine_node_product(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, "graph", "--type", "A2", "--p", "1:0,2", "--cache-dir", str(tmp_path)
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert sum(1 for ln in lines if "label=" in ln and "->" not in ln) == 9
    assert sum(1 for ln in lines if "->" in ln) == 12


def test_dot_flag_matches_export(capsys, tmp_path, A2, engine_for):
    rc, out, _ = run_cli(
        capsys,
        *("fund", "--type", "A2", "--node", "1", "--dot"),
        "--cache-dir",
        str(tmp_path),
    )
    assert rc == 0
    assert out == export_dot(engine_for(A2).fundamental_char(1, 0))


def _export_dot_pairwise(ch) -> str:
    """The first export_dot: every monomial against the inverse of every
    other one, kept here as the reference for the indexed version."""
    monos = [m for m, _ in ch.items()]
    index = {m: n for n, m in enumerate(monos)}
    lines = ["digraph qtchar {"]
    for m in monos:
        lines.append(f'  n{index[m]} [label="{m} : {ch.terms[m]}"];')
    lo = min((m.min_s() for m in monos if m.data), default=0)
    hi = max((m.max_s() for m in monos if m.data), default=0)
    quotients = {}
    for i in ch.L.nodes:
        for s in range(lo - 1, hi + 2):
            quotients[(a_monomial(ch.L, i, s) ** -1).data] = (i, s)
    edges = []
    for m1 in monos:
        inv = m1 ** -1
        for m2 in monos:
            hit = quotients.get((m2 * inv).data)
            if hit is not None:
                edges.append((index[m1], index[m2], hit))
    for a, b, (i, s) in sorted(edges):
        lines.append(f'  n{a} -> n{b} [label="({i},{s})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "type_name, roots",
    [
        ("A2", ((1, 0),)),
        ("A2", ((1, 0), (1, 2))),
        ("A2", ((1, 0), (2, 1))),
        ("A3", ((2, 0), (2, 2))),
        ("A3", ((2, 0), (2, 1), (2, 2))),
        ("D4", ((2, 0),)),
        ("D4", ((1, 0), (3, 0))),
        ("D4", ((2, 0), (1, 1))),
    ],
)
def test_export_dot_matches_pairwise_reference(engine_for, type_name, roots):
    L = build_lie_type(type_name[0], int(type_name[1:]))
    eng = engine_for(L)
    poly = DrinfeldPoly(roots)
    for ch in (eng.standard_char(poly), eng.simple_char(poly)):
        assert export_dot(ch) == _export_dot_pairwise(ch)


def test_graph_d4_string_within_budget(D4):
    ch = Engine(D4).standard_char(DrinfeldPoly.kr(2, 2, 0))
    t0 = time.perf_counter()
    text = export_dot(ch)
    elapsed = time.perf_counter() - t0
    assert text.count(" -> ") > len(ch)
    # 650 terms: about 0.2 s indexed, 2.7 s pairwise on a 2-core machine
    assert elapsed < 1.5, elapsed


def test_verifier_verbs_pass(capsys, tmp_path):
    cache = ("--cache-dir", str(tmp_path))
    checks = [
        ("tsys", "--type", "A2", "--node", "1", "--k", "2"),
        ("tsys", "--type", "A1", "--node", "1", "--k", "2", "--t-analog"),
        ("qsys", "--type", "A2", "--node", "2", "--k", "2"),
        ("converge", "--type", "A1", "--node", "1", "--k", "3", "--truncate", "2"),
        ("fermionic", "--type", "A1", "--nu", "1:1=1", "--truncate", "4", "--verify"),
    ]
    for argv in checks:
        rc, out, _ = run_cli(capsys, *argv, *cache)
        assert rc == 0, out
        assert "STATUS pass" in out


def test_tsys_warm_run_repeats_cold_run(capsys, tmp_path):
    argv = ("tsys", "--type", "A3", "--node", "2", "--k", "2", "--t-analog", "--cache-dir", str(tmp_path))

    def cache_state() -> dict:
        return {e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(tmp_path)}

    cold = run_cli(capsys, *argv)
    assert cold[0] == 0 and "STATUS pass" in cold[1]
    state = cache_state()
    assert len(state) == 5  # KR(2,1..3) and the neighbours' KR(1,2), KR(3,2)
    warm = run_cli(capsys, *argv)
    # same stdout, stderr and exit code; every entry's digest verified, so
    # no entry was rewritten
    assert warm == cold
    assert cache_state() == state


def test_fermionic_prints_degree_row(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys,
        *("fermionic", "--type", "A1", "--nu", "1:1=1", "--truncate", "3"),
        "--cache-dir",
        str(tmp_path),
    )
    assert rc == 0
    assert out == "1 0 -1 0\n"
    rc, out, _ = run_cli(
        capsys,
        *("fermionic", "--type", "A1", "--truncate", "2", "--convention", "lusztig"),
        "--cache-dir",
        str(tmp_path),
    )
    assert rc == 0
    assert out == "1 0 0\n"


def test_failing_report_exits_one(capsys, tmp_path, monkeypatch):
    import qtchar.cli as cli

    def fake(L, i, k, engine=None):
        return VerifyReport("q_system", {"i": i, "k": k}, "fail", {"w": "1"}, {"w": "2"})

    monkeypatch.setattr(cli.systems, "verify_q_system", fake)
    rc, out, _ = run_cli(
        capsys,
        *("qsys", "--type", "A2", "--node", "1", "--k", "1"),
        "--cache-dir",
        str(tmp_path),
    )
    assert rc == 1
    assert "STATUS fail" in out
    assert "w: lhs=1 rhs=2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("fund", "--type", "B2", "--node", "1"),
        ("fund", "--type", "E9", "--node", "1"),
        ("fund", "--type", "A2", "--node", "9"),
        ("kr", "--type", "A2", "--node", "1", "--k", "-1"),
        ("standard", "--type", "A2", "--p", "bogus"),
        ("fermionic", "--type", "A1", "--nu", "1:0=1", "--truncate", "2"),
        # paths that cannot be written are usage errors, not failed checks
        ("fund", "--type", "A1", "--node", "1", "--out", "/nonexistent/dir/x.qtc"),
        ("fund", "--type", "A1", "--node", "1", "--cache-dir", "{file}"),
        # a node above the rank is a usage error, not a failed check
        ("tsys", "--type", "A2", "--node", "5", "--k", "1", "--t-analog"),
    ],
)
def test_usage_errors_exit_two(capsys, tmp_path, argv):
    plain = tmp_path / "plain-file"
    plain.write_text("")
    argv = [a.format(file=plain) for a in argv]
    # the last --cache-dir wins, so a case's own one overrides the default
    rc, out, err = run_cli(capsys, argv[0], "--cache-dir", str(tmp_path / "cache"), *argv[1:])
    assert rc == 2
    assert err.startswith("error:")


def test_missing_required_flag_exits_two(capsys):
    assert main(["fund", "--type", "A2"]) == 2
    assert main([]) == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.qtc"
    rc, out, _ = run_cli(
        capsys,
        *("fund", "--type", "A1", "--node", "1", "--out", str(target)),
        "--cache-dir",
        str(tmp_path / "cache"),
    )
    assert rc == 0 and out == ""
    assert loads_qtc(target.read_text()).dimension() == 2


def test_cache_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv("QTC_CACHE", raising=False)
    assert _resolve_cache_dir("/x/y") == "/x/y"
    monkeypatch.setenv("QTC_CACHE", str(tmp_path))
    assert _resolve_cache_dir(None) == str(tmp_path)
    assert _resolve_cache_dir("/x/y") == "/x/y"
    monkeypatch.delenv("QTC_CACHE")
    default = _resolve_cache_dir(None)
    assert default.endswith("qtc-cache")


def test_cache_dir_flag_populates_directory(capsys, tmp_path):
    cache = tmp_path / "store"
    rc, _, _ = run_cli(
        capsys, "kr", "--type", "A1", "--node", "1", "--k", "2", "--cache-dir", str(cache)
    )
    assert rc == 0
    assert (cache / "A1_kr_1_2.qtc").exists()


def test_console_script_entry_point(tmp_path):
    # the child must import the same package the suite imported, whether
    # it came from an install or from src/ via pytest's pythonpath
    src = os.path.dirname(os.path.dirname(qtchar.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qtchar.cli",
            "fund",
            "--type",
            "A1",
            "--node",
            "1",
            "--cache-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "term 1 : Y[1,0]" in proc.stdout
