"""The malloc policy set when evslicer is imported: which mallopt calls the
environment allows, that importing starts no process, and that repeated
feedback training no longer faults its freed memory back in."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evslicer
from evslicer import _heap

TOP_PAD, MMAP_THRESHOLD = -2, -3        # glibc's <malloc.h> parameter numbers


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.mark.parametrize("env", [
    {"HOME": "/home/user"}, {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2"},
    {"MALLOC_ARENA_MAX": "2"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2:glibc.malloc.arena_max=2"},
    {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0:glibc.malloc.hugetlb=1"}])
def test_env_without_overlapping_controls_pins_top_pad_and_mmap_threshold(env):
    libc = FakeLibc()
    _heap.set_policy(libc, env)
    assert libc.calls == [(TOP_PAD, 32 << 20), (MMAP_THRESHOLD, 32 << 20)]


@pytest.mark.parametrize("env", [
    {"MALLOC_TOP_PAD_": "0"}, {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"MALLOC_MMAP_THRESHOLD_": "131072"}, {"MALLOC_MMAP_MAX_": "0"},
    {"GLIBC_TUNABLES": "glibc.malloc.top_pad=0"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.arena_max=2:glibc.malloc.mmap_threshold=131072"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2:glibc.malloc.mmap_max=0"}])
def test_glibc_controls_for_the_same_parameters_win(env):
    libc = FakeLibc()
    _heap.set_policy(libc, env)
    assert libc.calls == []


def unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: None, unknown_name, None],
                         ids=["empty", "unknown-name", "no-confstr"])
def test_non_glibc_host_loads_and_calls_nothing(monkeypatch, confstr):
    if confstr is None:
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr("ctypes.CDLL", lambda *_: pytest.fail("loaded a C library"))
    assert _heap.glibc() is None
    _heap.set_policy(_heap.glibc(), {})     # what import does: no library, so no call


def run_python(code):
    """Run code in a fresh interpreter that imports this evslicer, with
    glibc's malloc controls removed from its environment; return stdout."""
    env = {k: v for k, v in os.environ.items() if k not in _heap.GLIBC_VARS + ("GLIBC_TUNABLES",)}
    src = str(Path(evslicer.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout


def test_import_starts_no_process():
    spawned = run_python(
        "import sys\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, args: seen.append(event) if event.startswith(\n"
        "    ('subprocess.', 'os.posix_spawn', 'os.exec', 'os.fork', 'os.spawn', 'os.system'))\n"
        "    else None)\n"
        "import evslicer.cli\n"
        "print(seen)\n")
    assert spawned.strip() == "[]"


FEEDBACK_FAULTS = """
import resource
from evslicer.events import Scenario, synth_stream
from evslicer.feedback import DensityTargetOracle, FeedbackConfig, train_feedback
from evslicer.snn import SlicerNet

scenario = Scenario(duration_ms=900, rate_per_ms=[[0, 300, 20.0], [300, 600, 60.0],
                                                 [600, 900, 20.0]])
streams = [synth_stream(scenario, seed=seed) for seed in range(4)]
net = SlicerNet("LN-IF", in_hw=(32, 32), seed=0)
cfg = FeedbackConfig(dt_us=10_000, epochs=1, samples_per_epoch=4, lr=1e-5)
train_feedback(net, DensityTargetOracle(1200), streams, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    train_feedback(net, DensityTargetOracle(1200), streams, cfg)
print(min(map(len, streams)), (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(_heap.glibc() is None, reason="the policy is set on glibc only")
def test_feedback_calls_keep_their_heap():
    """Each train_feedback call frees four ~1.5 MB cell grids at its end. With
    glibc's default trimming the next call faulted them back in, 1500 to 2900
    minor faults a call on 32x32 streams of ~30k events; kept, it takes none."""
    n_events, faults = map(float, run_python(FEEDBACK_FAULTS).split())
    assert n_events > 29_000
    assert faults < 100
