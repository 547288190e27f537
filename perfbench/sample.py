"""One benchmark sample in a fresh interpreter.

Usage: python3 perfbench/sample.py WORKLOAD SHIFT TRACE WORKDIR

Sets up the workload (interpreter, import, engine construction and, for
tsystem_warm, the cache prefill), times its one library call, checks the
result against the digests in reference.json and prints one JSON line.
WORKDIR is an empty directory the sample may use for its engine cache.
With TRACE 1 the call runs under layers.Tracer and the line carries the
per-layer metrics.  run.py starts this script; a fresh process per sample
means no engine, lru_cache or peak-RSS state is carried between samples.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import qtchar  # noqa: E402
import qtchar.systems  # noqa: E402
from qtchar import DrinfeldPoly, Engine, build_lie_type, dumps_qtc, read_qtc  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())

# Characters the tsystem_warm prefill writes: everything verify_t_system_t
# reads for D4, i=2, k=2.
PREFILL = ((2, 1), (2, 2), (2, 3), (1, 2), (3, 2), (4, 2))


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
    return h.hexdigest()


def decompose_digest(res, s: int) -> str:
    """Digest of every simple in the decomposition order and of the
    factor list, translated back by -s."""
    parts = [dumps_qtc(res.simples[q].shift(-s)) for q in res.order]
    parts.extend(f"factor {q.shift(-s)} {z}\n" for q, z in res.factors)
    return digest(*parts)


def _cache_state(path: str) -> dict:
    return {
        e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
        for e in os.scandir(path)
    }


def fixpoint_cold(L, s, work):
    cache = os.path.join(work, "cache")
    eng = Engine(L, cache_dir=cache)
    ref = REFERENCE["fixpoint_cold"]

    def check(ch):
        bad = []
        if digest(dumps_qtc(ch.shift(-s))) != ref:
            bad.append("KR(2,4) character differs from the reference")
        stored = [
            digest(dumps_qtc(read_qtc(os.path.join(cache, name))))
            for name in sorted(os.listdir(cache))
            if name.endswith(".qtc")
        ]
        if ref not in stored:
            bad.append("no cache entry reads back as the KR(2,4) character")
        return bad

    return (lambda: eng.kr_char_direct(2, 4, s)), check


def decompose(L, s, work):
    eng = Engine(L)
    poly = DrinfeldPoly.kr(2, 3, s)

    def check(res):
        if decompose_digest(res, s) != REFERENCE["decompose"]:
            return ["simples of the KR(2,3) standard differ from the reference"]
        return []

    return (lambda: eng.kl_decompose(poly)), check


def tsystem_warm(L, s, work):
    # verify_t_system_t fixes its own spectral shifts, so s is unused here.
    cache = os.path.join(work, "cache")
    fill = Engine(L, cache_dir=cache)
    for i, k in PREFILL:
        fill.kr_char_direct(i, k, 0)
    before = _cache_state(cache)
    eng = Engine(L, cache_dir=cache)
    refs = REFERENCE["tsystem_warm"]

    def check(report):
        bad = []
        if not report.ok:
            bad.append("t-refined T-system report did not pass")
        if _cache_state(cache) != before:
            bad.append("cache entries were rewritten during the warm read")
        for i, k in PREFILL:
            if digest(dumps_qtc(eng.kr_char_direct(i, k, 0))) != refs[f"{i},{k}"]:
                bad.append(f"cached KR({i},{k}) differs from the reference")
        return bad

    # Looked up at call time, so a traced sample calls the tracer's wrapper.
    return (lambda: qtchar.systems.verify_t_system_t(L, 2, 2, eng)), check


WORKLOADS = {f.__name__: f for f in (fixpoint_cold, decompose, tsystem_warm)}


def _clear_lru_caches() -> None:
    """Empty the process-wide memo tables so setup work does not warm the
    timed call."""
    for name, mod in list(sys.modules.items()):
        if name == "qtchar" or name.startswith("qtchar."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def main() -> int:
    workload, shift, traced, work = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    out: dict = {"ok": False}
    try:
        if Path(qtchar.__file__).resolve().parent != SRC / "qtchar":
            raise RuntimeError(f"qtchar imported from {qtchar.__file__}, not from {SRC}")
        call, check = WORKLOADS[workload](build_lie_type("D", 4), shift, work)
        _clear_lru_caches()
        tracer = None
        if traced:
            from layers import Tracer

            tracer = Tracer()
        out["setup_end_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        c0, t0 = time.process_time(), time.perf_counter()
        result = tracer.run(call) if tracer else call()
        t1, c1 = time.perf_counter(), time.process_time()
        out["solve_s"] = t1 - t0
        out["solve_cpu_s"] = c1 - c0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out["layers"] = tracer.aggregate()
            out["untraced"] = tracer.missing
        out["problems"] = check(result)
        out["ok"] = not out["problems"]
    except Exception:
        out["problems"] = [traceback.format_exc(limit=3)]
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
