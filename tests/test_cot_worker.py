"""group_step's worker thread: the score batch's sin rows computed on one
worker thread must give the bits of the inline path, leave every traced
function on the main thread, never hold up the step, stay off on one CPU,
work in a forked child and end with its fit."""
import os
import signal
import sys
import threading
import time

from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from otfair import cot
from otfair.cot import (DivergenceError, DualPair, OtConfig, Regularizer,
                        cot_run, group_step)
from otfair.data import Dataset
from otfair.metrics import EmpiricalDistribution
from otfair.model import LogisticModel
from otfair.rff import DualPotential, RffMap, make_rff

ENT = Regularizer("entropy", 0.05)
L2 = Regularizer("l2", 0.1)
MODEL = LogisticModel(np.array([0.3, -0.2, 0.5, -0.5, 0.1]))
TARGET = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
NEVER = 1 << 62  # a WORKER_MIN_ENTRIES no stack reaches


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes this process see n CPUs, through its affinity mask or,
    with affinity=False, through os.cpu_count alone. It returns the list of
    the affinity queries made."""
    asked = []

    def see(n, affinity=True):
        def mask(pid):
            asked.append(pid)
            return set(range(n))

        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", mask, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        return asked
    return see


@pytest.fixture
def threaded(monkeypatch, cpus):
    """Every fit offloads its sin rows, whatever this host's CPUs."""
    cpus(2)
    monkeypatch.setattr(cot, "WORKER_MIN_ENTRIES", 0)


@pytest.fixture
def pools(monkeypatch):
    """The executors cot_run makes, in order. The step never waits on the
    worker, so on these small stacks it could take either thread's rows;
    each job given to these finishes before submit returns, so every step
    takes the worker's rows."""
    made = []

    class Finishing(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def submit(self, fn, /, *args, **kwargs):
            job = super().submit(fn, *args, **kwargs)
            wait([job])
            return job

    monkeypatch.setattr(cot, "ThreadPoolExecutor", Finishing)
    return made


@pytest.fixture
def on_worker(threaded, pools):
    """Every group_step takes its sin rows from the fit's worker thread."""
    return pools


def _dataset(seed, n=120, groups=3):
    """`groups` groups from one sensitive column, two features."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, groups, size=(n, 1))
    X = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.2 + 0.25 * A[:, 0]).astype(int)
    y[:2] = [0, 1]
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b", "c"][:groups]])


def _data(shape):
    """One dataset, or a 3-phase drift whose last phase the fit stops in."""
    if shape == "dataset":
        return _dataset(0)
    return [(_dataset(1), 6), (_dataset(2), 8), (_dataset(3), 20)]


def _grad_row_threads(monkeypatch):
    """The threads that run cot's _grad_rows calls, in call order."""
    real, threads = cot._grad_rows, []

    def recorded(m, s):
        threads.append(threading.current_thread())
        return real(m, s)

    monkeypatch.setattr(cot, "_grad_rows", recorded)
    return threads


def _fit_bytes(cfg, shape):
    model, trace, pairs = cot_run(MODEL, _data(shape), TARGET, cfg,
                                  trace_every=5)
    return (model.theta.tobytes(), [list(row.items()) for row in trace],
            [(key, p.score_side.coeffs.tobytes(), p.target_side.coeffs.tobytes())
             for key, p in pairs.items()])


@pytest.mark.parametrize("shape", ["dataset", "drift"])
@pytest.mark.parametrize("antisymmetric", [True, False])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
@pytest.mark.parametrize("reg", [ENT, L2], ids=["entropy", "l2"])
def test_threaded_and_inline_fits_are_identical(monkeypatch, on_worker, reg,
                                                pair_mode, antisymmetric,
                                                shape):
    cfg = OtConfig(reg=reg, D=12, num_updates=22, batch_scores=8,
                   batch_target=8, antisymmetric=antisymmetric,
                   pair_mode=pair_mode, seed=4)
    threads = _grad_row_threads(monkeypatch)
    on_worker = _fit_bytes(cfg, shape)
    assert len(threads) == 22
    assert threading.main_thread() not in threads
    monkeypatch.setattr(cot, "WORKER_MIN_ENTRIES", NEVER)
    del threads[:]
    inline = _fit_bytes(cfg, shape)
    assert threads == [threading.main_thread()] * 22
    assert on_worker == inline


def _nan_on_update_2(monkeypatch):
    """As on the inline path: the fourth alpha call is on update 2's new
    potentials, and a NaN there makes the objectives NaN."""
    real, calls = cot.alpha, []

    def nan_on_fourth(*args):
        calls.append(1)
        out = real(*args)
        return out * np.nan if len(calls) == 4 else out

    monkeypatch.setattr(cot, "alpha", nan_on_fourth)


def test_threaded_nan_objective_names_the_update(monkeypatch, on_worker):
    _nan_on_update_2(monkeypatch)
    threads = _grad_row_threads(monkeypatch)
    cfg = OtConfig(num_updates=5, batch_scores=8, batch_target=8, seed=1)
    with pytest.raises(DivergenceError, match=r"update 2\b.*dual objective"):
        cot_run(MODEL, _dataset(0), TARGET, cfg)
    assert len(threads) == 2
    assert threading.main_thread() not in threads


def _wrap_everywhere(monkeypatch, module, name, calls):
    """Record the thread of every call of module.<name>, made through any
    otfair module that binds it."""
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((name, threading.current_thread()))
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "otfair" or mod_name.startswith("otfair.")) and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, recorded)


TRACED_ON_MAIN = [("rff", "eval_features"), ("rff", "grad_potential_input"),
                  ("cot", "alpha"), ("cot", "conjugate"),
                  ("cot", "theta_update"), ("model", "score_batch")]


def test_traced_functions_run_on_the_main_thread(monkeypatch, on_worker):
    # The benchmark's tracer keeps one span stack per process, so the worker
    # may run numpy only.
    calls = []
    for module, name in TRACED_ON_MAIN:
        _wrap_everywhere(monkeypatch, sys.modules[f"otfair.{module}"], name,
                         calls)
    threads = _grad_row_threads(monkeypatch)
    cfg = OtConfig(reg=L2, D=12, num_updates=12, batch_scores=8,
                   batch_target=8, seed=2)
    cot_run(MODEL, _dataset(0), TARGET, cfg, trace_every=4)
    assert {name for name, _ in calls} == {"eval_features", "alpha",
                                           "conjugate", "theta_update",
                                           "score_batch"}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert len(threads) == 12
    assert threading.main_thread() not in threads


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["affinity", "cpu_count"])
def test_one_cpu_creates_no_worker(monkeypatch, cpus, pools, affinity):
    cpus(1, affinity)
    monkeypatch.setattr(cot, "WORKER_MIN_ENTRIES", 0)
    threads = _grad_row_threads(monkeypatch)
    cfg = OtConfig(D=12, num_updates=6, batch_scores=8, batch_target=8, seed=3)
    cot_run(MODEL, _dataset(0), TARGET, cfg)
    assert pools == []
    assert threads == [threading.main_thread()] * 6


@pytest.mark.parametrize("n_cpus,D,offloads", [(2, 128, True),
                                               (2, 127, False),
                                               (1, 128, False)])
def test_a_fit_offloads_from_the_threshold_on(monkeypatch, cpus, pools,
                                              n_cpus, D, offloads):
    # 2 groups x batch 64 x 128 features are the default 2**14 entries;
    # 127 features are not. The fit decides once, before its first update.
    asked = cpus(n_cpus)
    threads = _grad_row_threads(monkeypatch)
    cfg = OtConfig(D=D, num_updates=4, batch_scores=64, batch_target=8, seed=3)
    cot_run(LogisticModel(MODEL.theta[:4]), _dataset(0, groups=2), TARGET, cfg)
    assert len(pools) == offloads
    assert len(threads) == 4
    assert (threading.main_thread() not in threads) == offloads
    assert len(asked) <= 1


def _step_args():
    """group_step arguments for a stack of 3 pairs, batches of 8."""
    rng = np.random.default_rng(3)
    maps = [make_rff(12, 0.1, np.random.SeedSequence(0, spawn_key=(g + 1,)))
            for g in range(3)]
    m = RffMap(np.stack([x.omegas for x in maps]),
               np.stack([x.phases for x in maps]), 0.1)
    pair = DualPair(DualPotential(rng.normal(size=(3, 12)), m),
                    DualPotential(rng.normal(size=(3, 12)), m))
    return (pair, ENT, rng.normal(size=(3, 8, 4)),
            rng.uniform(0.05, 0.95, (3, 8)), rng.uniform(0.0, 1.0, 8), 0.02,
            True, "full")


def _step_bytes(args, pool=None):
    pair, obj, term = group_step(*args, None, pool)
    return (pair.score_side.coeffs.tobytes(), pair.target_side.coeffs.tobytes(),
            obj.tobytes(), term.tobytes())


@pytest.mark.parametrize("held", ["queued", "running"])
def test_the_step_does_not_wait_on_a_held_up_worker(monkeypatch, held):
    # A worker the host has not run yet, or is still running, costs the
    # step one inline pass, not a wait: a job it has not started is
    # dropped, and one it has not finished is not waited for.
    args = _step_args()
    expect = _step_bytes(args)  # inline
    gate, real = threading.Event(), cot._grad_rows

    def held_rows(m, s):
        if threading.current_thread() is not threading.main_thread():
            gate.wait(60.0)
        return real(m, s)

    monkeypatch.setattr(cot, "_grad_rows", held_rows)
    with ThreadPoolExecutor(1) as pool:
        blocker = pool.submit(gate.wait, 60.0) if held == "queued" else None
        jobs, submit = [], pool.submit

        def recorded(*call):
            jobs.append(submit(*call))
            return jobs[-1]

        monkeypatch.setattr(pool, "submit", recorded)
        try:
            got = _step_bytes(args, pool)
            if held == "queued":
                assert jobs[0].cancelled() and not blocker.done()
            else:
                assert jobs[0].cancelled() or jobs[0].running()
        finally:
            gate.set()
    assert got == expect


@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_no_thread_outlives_the_fit(monkeypatch, on_worker, outcome):
    # The fit's worker ends with the fit, whether it returns or diverges.
    before = set(threading.enumerate())
    threads = _grad_row_threads(monkeypatch)
    cfg = OtConfig(D=12, num_updates=6, batch_scores=8, batch_target=8, seed=1)
    if outcome == "raises":
        _nan_on_update_2(monkeypatch)
        with pytest.raises(DivergenceError, match=r"update 2\b"):
            cot_run(MODEL, _dataset(0), TARGET, cfg)
    else:
        cot_run(MODEL, _dataset(0), TARGET, cfg)
    assert threads and threading.main_thread() not in threads
    assert not any(thread.is_alive() for thread in threads)
    assert set(threading.enumerate()) <= before
    assert len(on_worker) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX fork")
def test_a_forked_child_runs_a_threaded_fit(monkeypatch, on_worker):
    # A child forked after a threaded fit starts a worker of its own for
    # its fit, and gets the parent's bits.
    cfg = OtConfig(D=12, num_updates=10, batch_scores=8, batch_target=8,
                   seed=5)
    threads = _grad_row_threads(monkeypatch)
    expect = _fit_bytes(cfg, "dataset")
    assert len(on_worker) == 1
    assert len(threads) == 10 and threading.main_thread() not in threads
    pid = os.fork()
    if pid == 0:
        status = 2
        try:
            del threads[:]
            got = _fit_bytes(cfg, "dataset")
            status = 0 if (got == expect and len(threads) == 10 and
                           threading.main_thread() not in threads) else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's threaded fit did not finish")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
    monkeypatch.setattr(cot, "WORKER_MIN_ENTRIES", NEVER)
    assert _fit_bytes(cfg, "dataset") == expect
