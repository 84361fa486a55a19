"""The chunk map that runs the per-chunk LAPACK work of the torus cache and
the variety sample on one thread per usable CPU: results in chunk order,
with the bits of the serial loop, and no public polydil function called off
the main thread."""

import functools
import inspect
import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    oracle_precompute_torus,
    oracle_variety_sample,
    unitary_last_triple,
    w1_product_triple,
    w2_tensor_jordan,
    w3_nonnormal,
)
from polydil import cli, matcore, realization as rz, vonneumann as vn
from polydil.errors import PolydilError, SampleTooLarge

# Q is (0, 0, Q) for a unitary Q: Phi is constant and unitary, so every
# variety fiber is in V0
INPUTS = {"W1": w1_product_triple, "W2": w2_tensor_jordan, "W3": w3_nonnormal,
          "Q": unitary_last_triple}
# torus grids and variety grids: W2 has three base variables, so both of its
# grids span several chunks of CHUNK points
TORUS_GRIDS = {"W1": 32, "W2": 12, "W3": 32, "Q": 32}
VARIETY_GRIDS = {"W1": 9, "W2": 5, "W3": 9, "Q": 7}


def use_workers(monkeypatch, workers):
    """Run the chunk map with this many workers, on a pool of its own."""
    monkeypatch.setattr(matcore, "_WORKERS", workers)
    monkeypatch.setattr(matcore, "_pool", None)


@functools.cache
def realization(name):
    return rz.build_generating_unitary(*INPUTS[name]())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_precompute_torus_matches_the_serial_loop(name, workers, monkeypatch):
    use_workers(monkeypatch, workers)
    r, grid = realization(name), TORUS_GRIDS[name]
    cache, oracle = vn.precompute_torus(r, grid), oracle_precompute_torus(r, grid)
    for field in ("points", "eigs", "regular"):
        assert getattr(cache, field).tobytes() == getattr(oracle, field).tobytes(), field
    assert (cache.singular_points, cache.grid) == (oracle.singular_points, oracle.grid)
    if name == "W2":
        assert len(cache.regular) > 4 * rz.CHUNK


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_variety_sample_matches_the_serial_loop(name, workers, monkeypatch):
    use_workers(monkeypatch, workers)
    r, grid = realization(name), VARIETY_GRIDS[name]
    sample, oracle = vn.variety_sample(r, grid_per_axis=grid), oracle_variety_sample(r, grid)
    assert sample.points.dtype == oracle.points.dtype
    for field in sample.points.dtype.names:
        assert sample.points[field].tobytes() == oracle.points[field].tobytes(), field
    assert sample.max_residual.hex() == oracle.max_residual.hex()
    assert (sample.h0_dim, sample.singular_points, sample.residual_ok) == (
        oracle.h0_dim, oracle.singular_points, oracle.residual_ok
    )
    if name == "W2":
        assert len(sample.points) > 4 * rz.CHUNK * r.dim_e
    if name == "Q":
        assert sample.h0_dim == 3 and np.all(sample.points["component"] == "V0")
        assert sample.max_residual > 0.0 and sample.residual_ok


def chunk_source(count, drawn):
    for k in range(count):
        drawn.append(k)
        yield slice(k, k + 1), np.full((1, 1, 1), float(k)), np.ones(1, dtype=bool)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_map_keeps_order_and_two_chunks_per_worker_in_flight(workers, monkeypatch):
    # three workers on a two-CPU host, with thread switches forced often
    use_workers(monkeypatch, workers)
    drawn, out, threads = [], [], set()

    def slow(phi):  # later chunks finish first
        threads.add(threading.current_thread())
        time.sleep(0.002 * (3 - int(phi[0, 0, 0]) % 3))
        return 2 * phi

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start = time.perf_counter()
    try:
        for (rows, phi, _), value in matcore._chunk_map(slow, chunk_source(200, drawn)):
            assert len(drawn) - len(out) <= 2 * workers
            assert rows == slice(len(out), len(out) + 1) and value[0, 0, 0] == 2 * phi[0, 0, 0]
            out.append(rows.start)
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(200)) and time.perf_counter() - start < 10.0
    assert (threads == {threading.main_thread()}) == (workers == 1)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
def test_workers_are_spread_once_and_keep_every_usable_cpu(monkeypatch):
    # each worker is moved to its own CPU when it starts, then allowed on all
    use_workers(monkeypatch, 2)
    usable, moves, tids = os.sched_getaffinity(0), [], set()
    spread = matcore._spread

    def recording(cpus, allowed):
        moves.append(sorted(allowed))
        spread(cpus, allowed)

    def busy(phi):  # long enough that the second chunk finds the first worker busy
        tids.add(threading.get_native_id())
        time.sleep(0.01)

    monkeypatch.setattr(matcore, "_spread", recording)
    for _ in matcore._chunk_map(busy, chunk_source(8, [])):
        pass
    assert moves == [sorted(usable)] * len(tids) and len(tids) == 2
    assert all(os.sched_getaffinity(tid) == usable for tid in tids)


def test_chunk_map_raises_a_worker_error_unchanged(monkeypatch):
    use_workers(monkeypatch, 2)
    raised = []

    def fn(phi):
        if phi[0, 0, 0] == 5.0:
            raised.append(ValueError("matrix has non-finite entries"))
            raise raised[0]
        return phi

    out = []
    with pytest.raises(ValueError) as info:
        for (rows, _, _), _ in matcore._chunk_map(fn, chunk_source(20, [])):
            out.append(rows.start)
    assert info.value is raised[0] and out == [0, 1, 2, 3, 4]


def test_variety_sample_raises_the_det_kernels_error_from_a_worker(monkeypatch):
    # a NaN eigenvalue in the third chunk makes the det kernel refuse the
    # fiber stack, on a worker thread
    use_workers(monkeypatch, 2)
    eigvals, det = matcore._eigvals, matcore._det
    calls, raised = itertools.count(), []

    def nan_eigvals(phi):
        lam = eigvals(phi)
        if next(calls) == 2:
            lam[0, 0] = np.nan
        return lam

    def recording_det(m):
        try:
            return det(m)
        except ValueError as exc:
            raised.append((exc, threading.current_thread()))
            raise

    monkeypatch.setattr(matcore, "_eigvals", nan_eigvals)
    monkeypatch.setattr(matcore, "_det", recording_det)
    with pytest.raises(ValueError, match="^matrix has non-finite entries$") as info:
        vn.variety_sample(realization("W2"), grid_per_axis=5)
    assert len(raised) == 1 and info.value is raised[0][0]
    assert raised[0][1] is not threading.main_thread()


def test_workers_call_no_public_function(monkeypatch):
    # a tracer wraps the public functions and keeps one span stack: every one
    # of them, in every layer the workers' callers use, fails off the main thread
    use_workers(monkeypatch, 2)
    r = realization("W1")

    def guard(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise AssertionError(f"{fn.__module__}.{fn.__name__} ran off the main thread")
            return fn(*args, **kwargs)

        return guarded

    wrapped = 0
    for module in (matcore, rz, vn):
        for attr, obj in list(vars(module).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                monkeypatch.setattr(module, attr, guard(obj))
                wrapped += 1
    assert wrapped > 30
    workers = set()
    eigvals = matcore._eigvals

    def counted(phi):
        workers.add(threading.current_thread())
        return eigvals(phi)

    monkeypatch.setattr(matcore, "_eigvals", counted)
    cache = vn.precompute_torus(r, 32)
    sample = vn.variety_sample(r, grid_per_axis=9)
    assert len(cache.eigs) and len(sample.points)
    assert workers - {threading.main_thread()}  # the guards saw the workers run


def test_one_worker_runs_in_the_caller(monkeypatch):
    use_workers(monkeypatch, 1)
    seen = set()
    eigvals = matcore._eigvals

    def counted(phi):
        seen.add(threading.current_thread())
        return eigvals(phi)

    monkeypatch.setattr(matcore, "_eigvals", counted)
    vn.precompute_torus(realization("W1"), 32)
    vn.variety_sample(realization("W1"), grid_per_axis=9)
    assert seen == {threading.main_thread()}


def run_script(tmp_path, text):
    """Run ``text`` in a fresh interpreter that imports polydil from this tree."""
    script = tmp_path / "script.py"
    script.write_text(text)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_usable_cpu_starts_no_thread_and_imports_no_pool(tmp_path):
    # bound to one CPU before polydil is imported
    run_script(tmp_path, (
        "import os, sys, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from polydil import matcore, realization as rz, vonneumann as vn\n"
        "from conftest import w1_product_triple\n"
        "r = rz.build_generating_unitary(*w1_product_triple())\n"
        "vn.precompute_torus(r, 32)\n"
        "vn.variety_sample(r, grid_per_axis=9)\n"
        "assert matcore._WORKERS == 1 and matcore._pool is None\n"
        "assert threading.active_count() == 1\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    ))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_pool(tmp_path):
    # the child has none of the parent's worker threads; an alarm ends it
    # if it waits for them
    run_script(tmp_path, (
        "import os, signal\n"
        "from polydil import matcore, realization as rz, vonneumann as vn\n"
        "from conftest import w1_product_triple\n"
        "matcore._WORKERS = 2\n"
        "r = rz.build_generating_unitary(*w1_product_triple())\n"
        "eigs = vn.precompute_torus(r, 32).eigs.tobytes()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)\n"
        "    ok = matcore._pool is None and vn.precompute_torus(r, 32).eigs.tobytes() == eigs\n"
        "    os._exit(0 if ok and matcore._pool is not None else 1)\n"
        "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n"
    ))


def test_variety_budget_refuses_w2_at_the_default_grid():
    # (interior disc points)^3 * e at grid 17: 197^3 * 8, over 2^22
    r = realization("W2")
    grid = inspect.signature(vn.variety_sample).parameters["grid_per_axis"].default
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(SampleTooLarge, match="61,162,984 points, over the budget of 4,194,304"):
            vn.variety_sample(r, grid_per_axis=grid)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert issubclass(SampleTooLarge, PolydilError)
    assert grid == 17 and elapsed < 1.0
    # lam alone would be 197^3 * 8 complex values, 978 MB
    assert peak < 2**20


def test_variety_budget_admits_w1_and_w3_at_the_default_grid(monkeypatch):
    # the budget is decided before the base grid is formed: stop there
    class Admitted(Exception):
        pass

    def stop(axis, m):
        raise Admitted(len(axis) ** m)

    monkeypatch.setattr(rz, "grid_points", stop)
    for name in ("W1", "W3"):
        r = realization(name)
        with pytest.raises(Admitted) as info:
            vn.variety_sample(r)
        assert info.value.args[0] * r.dim_e == 197**2 * 9 <= vn.VARIETY_POINT_BUDGET == 2**22


def test_cli_variety_refuses_w2_at_the_default_grid(tmp_path, capsys):
    path = tmp_path / "w2.json"
    t, cert = w2_tensor_jordan()
    cli.write_document(cli.tuple_to_doc(t, cert.g), str(path))
    out = tmp_path / "variety.json"
    start = time.perf_counter()
    assert cli.main(["variety", str(path), "--out", str(out)]) == cli.EXIT_PARSE
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    assert "over the budget of 4,194,304" in capsys.readouterr().err
